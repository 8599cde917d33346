#include "trace/columnar.h"

#include <algorithm>
#include <bit>

#include "trace/wire.h"

namespace laser::trace::columnar {

namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::loadLe64;

/** Bits needed to represent @p v (0 for 0). */
unsigned
bitsFor(std::uint64_t v)
{
    return static_cast<unsigned>(std::bit_width(v));
}

/** LSB-first fixed-width bit packer; pad bits in the last byte are 0. */
struct BitWriter
{
    std::vector<std::uint8_t> &out;
    std::uint8_t acc = 0;
    unsigned n = 0;

    explicit BitWriter(std::vector<std::uint8_t> &o) : out(o) {}

    void
    put(std::uint64_t v, unsigned width)
    {
        unsigned done = 0;
        while (done < width) {
            const unsigned take = std::min(width - done, 8u - n);
            const std::uint64_t bits =
                (v >> done) & ((1ull << take) - 1);
            acc |= static_cast<std::uint8_t>(bits << n);
            n += take;
            done += take;
            if (n == 8) {
                out.push_back(acc);
                acc = 0;
                n = 0;
            }
        }
    }

    void
    flush()
    {
        if (n > 0) {
            out.push_back(acc);
            acc = 0;
            n = 0;
        }
    }
};

/**
 * LSB-first reader of fixed-width fields packed in exactly
 * [data, data+size), the layout BitWriter produces. Random access: a
 * field is one (or, past 56 bits, two) word loads and a shift, not a
 * loop over its bytes. Word loads may read up to @p readable bytes
 * (>= size, the end of the enclosing column); bits past the field are
 * masked off.
 */
struct PackedFields
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t readable;
    unsigned width;
    std::uint64_t mask;

    PackedFields(const std::uint8_t *d, std::size_t s, std::size_t rd,
                 unsigned w)
        : data(d), size(s), readable(rd), width(w),
          mask(w >= 64 ? ~0ull : (1ull << w) - 1)
    {
    }

    /**
     * Strict framing for @p count fields: exactly the bytes they need,
     * with zero padding bits in the last byte. Must hold before get().
     */
    bool
    holds(std::size_t count) const
    {
        const std::uint64_t bits = std::uint64_t{count} * width;
        if (size != (bits + 7) / 8)
            return false;
        const unsigned used = static_cast<unsigned>(bits % 8);
        return used == 0 || (data[size - 1] >> used) == 0;
    }

    /** Field @p i (requires holds(count) for some count > i). */
    std::uint64_t
    get(std::size_t i) const
    {
        const std::uint64_t bit = std::uint64_t{i} * width;
        const std::size_t byte = static_cast<std::size_t>(bit / 8);
        const unsigned shift = static_cast<unsigned>(bit % 8);
        std::uint64_t word = 0;
        if (byte + 8 <= readable) {
            word = loadLe64(data + byte);
        } else {
            for (std::size_t k = byte; k < size; ++k)
                word |= static_cast<std::uint64_t>(data[k])
                        << (8 * (k - byte));
        }
        std::uint64_t v = word >> shift;
        // A field wider than 56 bits can spill into a ninth byte, which
        // holds() guarantees is in range.
        if (shift + width > 64)
            v |= static_cast<std::uint64_t>(data[byte + 8]) << (64 - shift);
        return v & mask;
    }

    /**
     * emit(i, field i) for every i < @p count (requires holds(count)),
     * in order. While the 8 bytes at a field's first byte are readable,
     * the field is one unaligned load and a shift; the last few fields,
     * and fields wider than 57 bits (which can spill into a ninth
     * byte), go through get().
     */
    template <typename Emit>
    void
    unpack(std::size_t count, Emit emit) const
    {
        std::size_t fast = 0;
        if (readable >= 8 && width <= 57) {
            // Field i's first byte is (i * width) / 8, readable for
            // i * width < 8 * (readable - 7).
            const std::uint64_t bits = 8 * std::uint64_t{readable - 7};
            fast = width == 0
                       ? count
                       : static_cast<std::size_t>(std::min<std::uint64_t>(
                             count, (bits + width - 1) / width));
        }
        std::size_t i = 0;
        for (std::uint64_t bit = 0; i < fast; ++i, bit += width)
            emit(i, (loadLe64(data + bit / 8) >> (bit % 8)) & mask);
        for (; i < count; ++i)
            emit(i, get(i));
    }
};

// -- DictPack ---------------------------------------------------------

/** Distinct sorted values of @p vals. */
std::vector<std::uint64_t>
buildDict(const std::vector<std::uint64_t> &vals)
{
    std::vector<std::uint64_t> dict(vals);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    return dict;
}

void
encodeDictPack(const std::vector<std::uint64_t> &vals,
               std::vector<std::uint8_t> *out)
{
    ByteWriter w(*out);
    if (vals.empty())
        return;
    const std::vector<std::uint64_t> dict = buildDict(vals);
    w.var(dict.size());
    for (std::size_t i = 0; i < dict.size(); ++i)
        w.var(i == 0 ? dict[0] : dict[i] - dict[i - 1]);

    const unsigned width = bitsFor(dict.size() - 1);
    BitWriter bits(*out);
    for (std::uint64_t v : vals)
        bits.put(static_cast<std::uint64_t>(
                     std::lower_bound(dict.begin(), dict.end(), v) -
                     dict.begin()),
                 width);
    bits.flush();
}

bool
decodeDictPack(const std::uint8_t *data, std::size_t size,
               std::size_t count, std::vector<std::uint64_t> *out)
{
    if (count == 0)
        return size == 0;
    ByteReader r(data, size);
    const std::uint64_t dict_size = r.var();
    // Each dictionary entry takes >= 1 byte; bound the reserve.
    if (!r.ok || dict_size == 0 || dict_size > r.remaining())
        return false;
    std::vector<std::uint64_t> dict;
    dict.reserve(static_cast<std::size_t>(dict_size));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < dict_size; ++i) {
        const std::uint64_t d = r.var();
        if (!r.ok)
            return false;
        // Entries are strictly increasing (delta >= 1 past the first);
        // equal entries would make the encoding non-canonical.
        if (i > 0 && d == 0)
            return false;
        prev = i == 0 ? d : prev + d;
        dict.push_back(prev);
    }
    const PackedFields bits(r.p, r.remaining(), r.remaining(),
                            bitsFor(dict.size() - 1));
    if (!bits.holds(count))
        return false;
    // An index past the dictionary is latched, not branched on: its
    // load is clamped in range and the column is rejected after.
    const std::uint64_t last = dict.size() - 1;
    const std::uint64_t *entries = dict.data();
    std::uint64_t *dst = out->data();
    bool out_of_range = false;
    bits.unpack(count, [&](std::size_t i, std::uint64_t idx) {
        out_of_range |= idx > last;
        dst[i] = entries[std::min(idx, last)];
    });
    return !out_of_range;
}

// -- DeltaForPack -----------------------------------------------------

/**
 * Deltas are packed in mini-blocks of 128 with a per-group base and bit
 * width, so one outlier delta (a phase change, a tile seam) widens only
 * its own group instead of the whole block. A constant-stride group
 * (width 0) costs just its base varint — the common case for sampled
 * cycle columns.
 */
constexpr std::size_t kDeltaGroup = 128;

void
encodeDeltaForPack(const std::vector<std::uint64_t> &vals,
                   std::vector<std::uint8_t> *out)
{
    ByteWriter w(*out);
    if (vals.empty())
        return;
    w.var(vals[0]);
    if (vals.size() == 1)
        return;
    std::vector<std::uint64_t> deltas;
    deltas.reserve(vals.size() - 1);
    for (std::size_t i = 1; i < vals.size(); ++i)
        deltas.push_back(wire::zigzagEncode(
            static_cast<std::int64_t>(vals[i] - vals[i - 1])));
    for (std::size_t g = 0; g < deltas.size(); g += kDeltaGroup) {
        const std::size_t n =
            std::min(kDeltaGroup, deltas.size() - g);
        const std::uint64_t base = *std::min_element(
            deltas.begin() + g, deltas.begin() + g + n);
        const std::uint64_t top = *std::max_element(
            deltas.begin() + g, deltas.begin() + g + n);
        const unsigned width = bitsFor(top - base);
        w.var(base);
        w.u8(static_cast<std::uint8_t>(width));
        BitWriter bits(*out);
        for (std::size_t i = 0; i < n; ++i)
            bits.put(deltas[g + i] - base, width);
        bits.flush(); // per-group byte alignment keeps decode strict
    }
}

bool
decodeDeltaForPack(const std::uint8_t *data, std::size_t size,
                   std::size_t count, std::vector<std::uint64_t> *out)
{
    if (count == 0)
        return size == 0;
    ByteReader r(data, size);
    std::uint64_t prev = r.var();
    if (!r.ok)
        return false;
    std::uint64_t *dst = out->data();
    *dst++ = prev;
    std::size_t remaining = count - 1;
    while (remaining > 0) {
        const std::size_t n = std::min(kDeltaGroup, remaining);
        const std::uint64_t base = r.var();
        const unsigned width = r.u8();
        if (!r.ok || width > 64)
            return false;
        const std::size_t group_bytes = (n * width + 7) / 8;
        if (group_bytes > r.remaining())
            return false;
        const PackedFields bits(r.p, group_bytes, r.remaining(), width);
        if (!bits.holds(n)) // nonzero padding bits
            return false;
        bits.unpack(n, [&](std::size_t, std::uint64_t field) {
            prev += static_cast<std::uint64_t>(
                wire::zigzagDecode(base + field));
            *dst++ = prev;
        });
        r.skip(group_bytes);
        remaining -= n;
    }
    return r.remaining() == 0;
}

} // namespace

const char *
columnName(std::size_t column)
{
    switch (column) {
      case kColPc:    return "pc";
      case kColAddr:  return "data_addr";
      case kColCore:  return "core";
      case kColCycle: return "cycle";
    }
    return "???";
}

void
encodeColumn(std::size_t column, const std::vector<std::uint64_t> &vals,
             std::vector<std::uint8_t> *out)
{
    if (column == kColCycle)
        encodeDeltaForPack(vals, out);
    else
        encodeDictPack(vals, out);
}

bool
decodeColumn(std::size_t column, const std::uint8_t *data,
             std::size_t size, std::size_t count,
             std::vector<std::uint64_t> *out)
{
    out->resize(count);
    return column == kColCycle
               ? decodeDeltaForPack(data, size, count, out)
               : decodeDictPack(data, size, count, out);
}

// ---------------------------------------------------------------------
// BlockIndex
// ---------------------------------------------------------------------

std::uint64_t
BlockIndex::blobBytes() const
{
    std::uint64_t n = 0;
    for (const BlockInfo &b : blocks)
        n += b.blobBytes();
    return n;
}

void
BlockIndex::encode(std::vector<std::uint8_t> *out) const
{
    const std::size_t start = out->size();
    ByteWriter w(*out);
    w.var(records);
    w.var(blobOffset);
    w.u64(metaChecksum);
    w.var(blocks.size());
    std::uint64_t prev_first = 0;
    for (const BlockInfo &b : blocks) {
        w.var(b.records);
        // Cycle ranges are zigzag deltas: canonical streams never
        // regress, but finalize() must also encode the non-monotonic
        // streams the reader's rejection paths are tested with.
        w.zig(static_cast<std::int64_t>(b.firstCycle - prev_first));
        w.zig(static_cast<std::int64_t>(b.lastCycle - b.firstCycle));
        prev_first = b.firstCycle;
        for (std::size_t c = 0; c < kColumnCount; ++c)
            w.var(b.columnBytes[c]);
        w.u64(b.checksum);
    }
    w.u64(wire::wordHash(out->data() + start, out->size() - start));
}

bool
BlockIndex::decode(const std::uint8_t *data, std::size_t size,
                   std::string *err)
{
    *this = {};
    if (size < 8) {
        *err = "block index shorter than its checksum";
        return false;
    }
    ByteReader trailer(data + size - 8, 8);
    const std::uint64_t stored_sum = trailer.u64();
    if (wire::wordHash(data, size - 8) != stored_sum) {
        *err = "block index checksum mismatch";
        return false;
    }

    ByteReader r(data, size - 8);
    records = r.var();
    blobOffset = r.var();
    metaChecksum = r.u64();
    const std::uint64_t block_count = r.var();
    // A block entry occupies >= 15 bytes (3 varints, 4 size varints,
    // a u64 checksum); bound the reserve against bomb counts.
    if (!r.ok || block_count > r.remaining() / 15 + 1) {
        *err = "block index ends mid-structure";
        return false;
    }
    blocks.reserve(static_cast<std::size_t>(block_count));
    std::uint64_t prev_first = 0;
    std::uint64_t first_record = 0;
    std::uint64_t blob_offset = 0;
    for (std::uint64_t i = 0; i < block_count; ++i) {
        BlockInfo b;
        b.firstRecord = first_record;
        b.blobOffset = blob_offset;
        b.records = r.var();
        b.firstCycle =
            prev_first + static_cast<std::uint64_t>(r.zig());
        b.lastCycle =
            b.firstCycle + static_cast<std::uint64_t>(r.zig());
        prev_first = b.firstCycle;
        for (std::size_t c = 0; c < kColumnCount; ++c)
            b.columnBytes[c] = r.var();
        b.checksum = r.u64();
        if (!r.ok) {
            *err = "block index ends mid-structure";
            return false;
        }
        if (b.records == 0) {
            *err = "block " + std::to_string(i) + " declares 0 records";
            return false;
        }
        if (b.records > kMaxBlockRecords) {
            *err = "block " + std::to_string(i) + " declares " +
                   std::to_string(b.records) +
                   " records (max " + std::to_string(kMaxBlockRecords) +
                   ")";
            return false;
        }
        first_record += b.records;
        blob_offset += b.blobBytes();
        blocks.push_back(b);
    }
    if (r.remaining() != 0) {
        *err = "trailing bytes after block index entries";
        return false;
    }
    if (first_record != records) {
        *err = "block record counts sum to " +
               std::to_string(first_record) + ", index declares " +
               std::to_string(records);
        return false;
    }
    return true;
}

bool
BlockIndex::cyclesOrdered() const
{
    std::uint64_t prev_last = 0;
    for (const BlockInfo &b : blocks) {
        if (b.lastCycle < b.firstCycle || b.firstCycle < prev_last)
            return false;
        prev_last = b.lastCycle;
    }
    return true;
}

void
BlockIndex::blocksForCycles(std::uint64_t begin, std::uint64_t end,
                            std::size_t *first_block,
                            std::size_t *end_block) const
{
    // First block whose lastCycle >= begin (earlier blocks end before
    // the window opens)...
    *first_block = static_cast<std::size_t>(
        std::lower_bound(blocks.begin(), blocks.end(), begin,
                         [](const BlockInfo &b, std::uint64_t c) {
                             return b.lastCycle < c;
                         }) -
        blocks.begin());
    // ...up to the first block whose firstCycle >= end (it and later
    // blocks start after the half-open window closes).
    *end_block = static_cast<std::size_t>(
        std::lower_bound(blocks.begin(), blocks.end(), end,
                         [](const BlockInfo &b, std::uint64_t c) {
                             return b.firstCycle < c;
                         }) -
        blocks.begin());
    if (*end_block < *first_block)
        *end_block = *first_block;
}

std::size_t
BlockIndex::blockForRecord(std::uint64_t record) const
{
    return static_cast<std::size_t>(
        std::upper_bound(blocks.begin(), blocks.end(), record,
                         [](std::uint64_t rec, const BlockInfo &b) {
                             return rec < b.firstRecord + b.records;
                         }) -
        blocks.begin());
}

} // namespace laser::trace::columnar
