/**
 * @file
 * Tests for the LSRT columnar layer: per-column codec round-trips and
 * strict rejection, block-index bomb bounds, seek-window decode
 * equivalence, config-section bounds, a seeded mutation sweep over
 * TraceFile, and streaming-replay memory bounds.
 */

#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "analysis/sink.h"
#include "detect/pipeline.h"
#include "trace/capture.h"
#include "trace/columnar.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "trace/wire.h"

namespace laser::trace {
namespace {

namespace fs = std::filesystem;
namespace col = columnar;

/** Deterministic pseudo-random values (xorshift; no global seed). */
std::uint64_t
nextRand(std::uint64_t *state)
{
    std::uint64_t x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return *state = x;
}

TraceMeta
syntheticMeta()
{
    TraceMeta meta;
    meta.workload = "kmeans";
    meta.scheme = "laser-detect";
    meta.pebs.sav = 19;
    meta.stats.cycles = 500000;
    meta.runtimeCycles = 500000;
    meta.mapsText = "00400000-00410000 r-xp 00000000 00:00 1  /app\n";
    return meta;
}

/** @p n records with clustered addresses and non-decreasing cycles. */
std::vector<pebs::PebsRecord>
syntheticRecords(std::size_t n)
{
    std::vector<pebs::PebsRecord> recs;
    recs.reserve(n);
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::uint64_t cycle = 1000;
    for (std::size_t i = 0; i < n; ++i) {
        pebs::PebsRecord r;
        r.pc = 0x400000 + (nextRand(&rng) % 64) * 4;
        // Two address clusters, like a heap region + a stack region.
        r.dataAddr = (i % 3 == 0)
                         ? 0xffff'8000'0000'0000ull + nextRand(&rng) % 4096
                         : 0x1000000 + (nextRand(&rng) % 512) * 8;
        r.core = static_cast<int>(nextRand(&rng) % 4);
        cycle += nextRand(&rng) % 97; // occasionally zero: equal cycles
        r.cycle = cycle;
        recs.push_back(r);
    }
    return recs;
}

// ---------------------------------------------------------------------
// Codec units
// ---------------------------------------------------------------------

std::vector<std::vector<std::uint64_t>>
codecCorpus()
{
    std::vector<std::vector<std::uint64_t>> corpus;
    corpus.push_back({});                      // empty
    corpus.push_back({42});                    // single value
    corpus.push_back(std::vector<std::uint64_t>(300, 7)); // constant
    std::vector<std::uint64_t> strided;        // constant stride
    for (std::uint64_t i = 0; i < 500; ++i)
        strided.push_back(1000 + i * 64);
    corpus.push_back(strided);
    std::vector<std::uint64_t> outlier = strided; // stride + one spike
    outlier[250] = 0xffff'ffff'ffff'0000ull;
    corpus.push_back(outlier);
    std::vector<std::uint64_t> random;         // high entropy
    std::uint64_t rng = 0xdeadbeefcafef00dull;
    for (int i = 0; i < 400; ++i)
        random.push_back(nextRand(&rng));
    corpus.push_back(random);
    std::vector<std::uint64_t> wide;           // 57-63 bit packed fields
    for (int i = 0; i < 400; ++i)
        wide.push_back(nextRand(&rng) >> 4);
    corpus.push_back(wide);
    std::vector<std::uint64_t> clustered;      // two tight clusters
    for (int i = 0; i < 300; ++i)
        clustered.push_back((i % 2 ? 0xffff'8000'0000'0000ull : 0x10000) +
                            nextRand(&rng) % 256);
    corpus.push_back(clustered);
    return corpus;
}

TEST(ColumnCoding, EveryColumnRoundTripsEveryShape)
{
    for (const auto &vals : codecCorpus()) {
        for (std::size_t c = 0; c < col::kColumnCount; ++c) {
            std::vector<std::uint8_t> bytes;
            col::encodeColumn(c, vals, &bytes);
            std::vector<std::uint64_t> decoded;
            ASSERT_TRUE(col::decodeColumn(c, bytes.data(), bytes.size(),
                                          vals.size(), &decoded))
                << col::columnName(c) << " over " << vals.size()
                << " values";
            EXPECT_EQ(decoded, vals) << col::columnName(c);
        }
    }
}

TEST(ColumnCoding, EncodedShapeCorpusMatchesPinnedDigest)
{
    // FNV-1a over every column's encoding of every shape: the layout is
    // pinned, so a faster encoder must write the same bytes.
    std::uint64_t hash = 1469598103934665603ULL;
    const auto mix = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ULL;
        }
    };
    for (const auto &vals : codecCorpus()) {
        for (std::size_t c = 0; c < col::kColumnCount; ++c) {
            std::vector<std::uint8_t> bytes;
            col::encodeColumn(c, vals, &bytes);
            mix(bytes.size());
            for (const std::uint8_t b : bytes)
                mix(b);
        }
    }
    EXPECT_EQ(hash, 0x5119e394982ca745ULL) << std::hex << hash;
}

TEST(ColumnCoding, DictPackIsDictionaryThenPackedIndices)
{
    // 4,096 values in runs of 512 over three distinct values: the
    // layout is the sorted dictionary (count, then delta varints)
    // followed by 2-bit indices, LSB first — whatever the run structure.
    const std::uint64_t dict[] = {3, 130, 20000};
    const unsigned run_index[] = {1, 0, 2, 1, 0, 2, 0, 1};
    std::vector<std::uint64_t> vals;
    for (const unsigned idx : run_index)
        vals.insert(vals.end(), 512, dict[idx]);
    ASSERT_EQ(vals.size(), 4096u);

    // 3 entries; deltas 3, 127, 19870 (LEB128 0x9e 0x9b 0x01).
    std::vector<std::uint8_t> want = {0x03, 0x03, 0x7f, 0x9e, 0x9b, 0x01};
    const std::size_t dict_bytes = want.size();
    for (const unsigned idx : run_index)
        want.insert(want.end(), 512 * 2 / 8,
                    static_cast<std::uint8_t>(idx * 0x55));
    ASSERT_EQ(want.size(), dict_bytes + (4096 * 2 + 7) / 8);

    for (const std::size_t c : {col::kColPc, col::kColAddr, col::kColCore}) {
        std::vector<std::uint8_t> bytes;
        col::encodeColumn(c, vals, &bytes);
        EXPECT_EQ(bytes, want) << col::columnName(c);
        std::vector<std::uint64_t> decoded;
        ASSERT_TRUE(col::decodeColumn(c, bytes.data(), bytes.size(),
                                      vals.size(), &decoded))
            << col::columnName(c);
        EXPECT_EQ(decoded, vals) << col::columnName(c);
    }

    std::vector<std::uint64_t> decoded;
    std::vector<std::uint8_t> bad = want;
    bad[dict_bytes] = 0xff; // index 3, past the 3-entry dictionary
    EXPECT_FALSE(col::decodeColumn(col::kColPc, bad.data(), bad.size(),
                                   vals.size(), &decoded));
    bad = want;
    bad[2] = 0x00; // a repeated dictionary entry (delta 0)
    EXPECT_FALSE(col::decodeColumn(col::kColPc, bad.data(), bad.size(),
                                   vals.size(), &decoded));
}

TEST(ColumnCoding, RejectsTruncationAndTrailingBytes)
{
    const auto corpus = codecCorpus();
    const std::vector<std::uint64_t> &vals = corpus.back();
    for (std::size_t c = 0; c < col::kColumnCount; ++c) {
        std::vector<std::uint8_t> bytes;
        col::encodeColumn(c, vals, &bytes);
        std::vector<std::uint64_t> decoded;
        for (std::size_t cut = 0; cut < bytes.size(); ++cut)
            EXPECT_FALSE(col::decodeColumn(c, bytes.data(), cut,
                                           vals.size(), &decoded))
                << col::columnName(c) << " accepted a " << cut
                << "-byte prefix";
        std::vector<std::uint8_t> padded = bytes;
        padded.push_back(0x00);
        EXPECT_FALSE(col::decodeColumn(c, padded.data(), padded.size(),
                                       vals.size(), &decoded))
            << col::columnName(c) << " accepted a trailing byte";
    }
}

/**
 * Overwrite field @p i of the @p width-bit LSB-first packing that
 * starts at (*bytes)[at] with @p v.
 */
void
setPackedField(std::vector<std::uint8_t> *bytes, std::size_t at,
               std::size_t i, unsigned width, std::uint64_t v)
{
    for (unsigned b = 0; b < width; ++b) {
        const std::size_t bit = i * width + b;
        const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
        std::uint8_t &byte = (*bytes)[at + bit / 8];
        byte = ((v >> b) & 1) ? byte | mask : byte & ~mask;
    }
}

TEST(ColumnCoding, DictPackRejectsAnOutOfRangeIndexAtEveryField)
{
    // Every field position: the first word, the middle, and each field
    // of the last 8 bytes, which the decoder reads byte by byte.
    // Dictionaries of 3, 5 and 100 entries pack 2-, 3- and 7-bit
    // indices, so each width has indices past the dictionary.
    for (const std::size_t dict_size : {3u, 5u, 100u}) {
        const unsigned width = std::bit_width(dict_size - 1);
        for (const std::size_t count :
             {dict_size, dict_size + 13, std::size_t{333}}) {
            std::vector<std::uint64_t> vals;
            for (std::size_t i = 0; i < count; ++i)
                vals.push_back(1000 + (i * 7 % dict_size) * 64);
            std::vector<std::uint8_t> bytes;
            col::encodeColumn(col::kColPc, vals, &bytes);
            const std::size_t packed = (count * width + 7) / 8;
            const std::size_t at = bytes.size() - packed;
            std::vector<std::uint64_t> decoded;
            for (std::size_t i = 0; i < count; ++i) {
                // A valid index at the same spot decodes: the edit
                // lands on field i and nowhere else.
                std::vector<std::uint8_t> edited = bytes;
                const std::uint64_t other = (i * 7 + 1) % dict_size;
                setPackedField(&edited, at, i, width, other);
                ASSERT_TRUE(col::decodeColumn(col::kColPc, edited.data(),
                                              edited.size(), count,
                                              &decoded));
                EXPECT_EQ(decoded[i], 1000 + other * 64);
                const std::uint64_t top = (std::uint64_t{1} << width) - 1;
                for (const std::uint64_t bad :
                     {std::uint64_t{dict_size}, top}) {
                    edited = bytes;
                    setPackedField(&edited, at, i, width, bad);
                    EXPECT_FALSE(col::decodeColumn(col::kColPc,
                                                   edited.data(),
                                                   edited.size(), count,
                                                   &decoded))
                        << "index " << bad << " of " << dict_size
                        << " at field " << i << " of " << count;
                }
            }
        }
    }
}

TEST(ColumnCoding, NonzeroPaddingBitsAreRejected)
{
    struct Case
    {
        std::size_t column;
        std::vector<std::uint64_t> vals;
        unsigned paddingBits;
    };
    std::vector<std::uint64_t> dict7; // 100 entries: 7-bit indices
    for (std::uint64_t i = 0; i < 100; ++i)
        dict7.push_back(i * 3);
    const Case cases[] = {
        // 7 two-bit indices: 14 bits, 2 padding bits.
        {col::kColCore, {0, 1, 2, 0, 1, 2, 0}, 2},
        // 100 seven-bit indices: 700 bits, 4 padding bits.
        {col::kColAddr, dict7, 4},
        // One group of 5 three-bit deltas: 15 bits, 1 padding bit.
        {col::kColCycle, {10, 10, 17, 12, 19, 14}, 1},
    };
    for (const Case &c : cases) {
        std::vector<std::uint8_t> bytes;
        col::encodeColumn(c.column, c.vals, &bytes);
        std::vector<std::uint64_t> decoded;
        ASSERT_TRUE(col::decodeColumn(c.column, bytes.data(), bytes.size(),
                                      c.vals.size(), &decoded));
        ASSERT_EQ(bytes.back() >> (8 - c.paddingBits), 0)
            << col::columnName(c.column);
        for (unsigned b = 8 - c.paddingBits; b < 8; ++b) {
            std::vector<std::uint8_t> padded = bytes;
            padded.back() ^= static_cast<std::uint8_t>(1u << b);
            EXPECT_FALSE(col::decodeColumn(c.column, padded.data(),
                                           padded.size(), c.vals.size(),
                                           &decoded))
                << col::columnName(c.column) << " padding bit " << b;
        }
    }
}

TEST(ColumnCoding, DeltaForPackRoundTripsEveryGroupWidth)
{
    // Each group's zigzag deltas span exactly [base, base + 2^width - 1],
    // so it packs at that width. The delta counts put a group's packed
    // bytes on both sides of the 8 bytes a word load needs, and the
    // later ones span several groups.
    std::uint64_t rng = 0x243f6a8885a308d3ull;
    std::vector<std::size_t> delta_counts;
    for (std::size_t n = 1; n <= 20; ++n)
        delta_counts.push_back(n);
    for (const std::size_t n : {63, 64, 65, 127, 128, 129, 255, 256, 257})
        delta_counts.push_back(n);
    for (unsigned width = 0; width <= 64; ++width) {
        const std::uint64_t span =
            width == 64 ? ~0ull : (1ull << width) - 1;
        for (const std::size_t deltas : delta_counts) {
            const std::uint64_t base =
                width == 64 ? 0 : nextRand(&rng) >> width;
            std::vector<std::uint64_t> vals = {nextRand(&rng)};
            for (std::size_t i = 0; i < deltas; ++i) {
                const std::size_t in_group = i % 128;
                const std::uint64_t offset =
                    in_group == 0 ? 0
                    : in_group == 1 ? span
                                    : nextRand(&rng) & span;
                vals.push_back(vals.back() + static_cast<std::uint64_t>(
                                   wire::zigzagDecode(base + offset)));
            }
            std::vector<std::uint8_t> bytes;
            col::encodeColumn(col::kColCycle, vals, &bytes);

            // Walk the layout: first value, then per group its base
            // varint, its width byte and its packed deltas.
            wire::ByteReader r(bytes.data(), bytes.size());
            r.var();
            for (std::size_t g = 0; g < deltas; g += 128) {
                const std::size_t n = std::min<std::size_t>(128, deltas - g);
                r.var();
                const unsigned got = r.u8();
                EXPECT_EQ(got, n > 1 ? width : 0)
                    << deltas << " deltas, group " << g / 128;
                r.skip((n * got + 7) / 8);
            }
            ASSERT_TRUE(r.ok);
            EXPECT_EQ(r.remaining(), 0u);

            std::vector<std::uint64_t> decoded;
            ASSERT_TRUE(col::decodeColumn(col::kColCycle, bytes.data(),
                                          bytes.size(), vals.size(),
                                          &decoded))
                << "width " << width << ", " << deltas << " deltas";
            EXPECT_EQ(decoded, vals)
                << "width " << width << ", " << deltas << " deltas";
        }
    }
}

TEST(BlockIndex, RejectsRecordCountBombs)
{
    col::BlockIndex index;
    index.records = col::kMaxBlockRecords + 1;
    index.blobOffset = 100;
    index.metaChecksum = 7;
    col::BlockInfo b;
    b.records = col::kMaxBlockRecords + 1; // over the bound
    b.firstCycle = 10;
    b.lastCycle = 20;
    b.columnBytes[col::kColPc] = 4; // far smaller than records claims
    index.blocks.push_back(b);

    std::vector<std::uint8_t> bytes;
    index.encode(&bytes);
    col::BlockIndex decoded;
    std::string err;
    EXPECT_FALSE(decoded.decode(bytes.data(), bytes.size(), &err));
    EXPECT_NE(err.find("max"), std::string::npos) << err;
}

TEST(BlockIndex, MinimalEntriesPassTheBombGuard)
{
    // 64 one-record blocks whose every varint fits one byte: 15 bytes
    // per entry, the smallest an entry can be, so the count bound must
    // still admit them.
    col::BlockIndex index;
    index.blobOffset = 100;
    for (std::uint64_t i = 0; i < 64; ++i) {
        col::BlockInfo b;
        b.firstRecord = i;
        b.blobOffset = 4 * i;
        b.records = 1;
        b.firstCycle = i;
        b.lastCycle = i;
        for (std::uint64_t &bytes : b.columnBytes)
            bytes = 1;
        b.checksum = i;
        index.blocks.push_back(b);
    }
    index.records = index.blocks.size();

    std::vector<std::uint8_t> bytes;
    index.encode(&bytes);
    col::BlockIndex decoded;
    std::string err;
    ASSERT_TRUE(decoded.decode(bytes.data(), bytes.size(), &err)) << err;
    ASSERT_EQ(decoded.blocks.size(), index.blocks.size());
    for (std::size_t i = 0; i < index.blocks.size(); ++i) {
        const col::BlockInfo &want = index.blocks[i];
        const col::BlockInfo &got = decoded.blocks[i];
        EXPECT_EQ(got.firstRecord, want.firstRecord);
        EXPECT_EQ(got.blobOffset, want.blobOffset);
        EXPECT_EQ(got.firstCycle, want.firstCycle);
        EXPECT_EQ(got.lastCycle, want.lastCycle);
        EXPECT_EQ(got.checksum, want.checksum);
    }
}

// ---------------------------------------------------------------------
// Seekable file: window decode, corruption, read volume
// ---------------------------------------------------------------------

/** A multi-block image (small blocks force many index entries). */
std::vector<std::uint8_t>
multiBlockImage(const std::vector<pebs::PebsRecord> &recs,
                std::size_t block_records = 256)
{
    TraceWriter writer(syntheticMeta(), block_records);
    writer.appendAll(recs);
    return writer.finalize();
}

std::vector<pebs::PebsRecord>
drainAll(std::unique_ptr<RecordCursor> cur)
{
    struct Collect : analysis::RecordSink
    {
        std::vector<pebs::PebsRecord> recs;
        void onRecord(const pebs::PebsRecord &r) override
        {
            recs.push_back(r);
        }
    } sink;
    cur->drain(sink);
    EXPECT_EQ(cur->status(), TraceStatus::Ok);
    return sink.recs;
}

bool
recordsEqual(const std::vector<pebs::PebsRecord> &a,
             const std::vector<pebs::PebsRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].pc != b[i].pc || a[i].dataAddr != b[i].dataAddr ||
            a[i].core != b[i].core || a[i].cycle != b[i].cycle)
            return false;
    return true;
}

TEST(TraceFileSeek, WindowDecodeMatchesFullDecodeSlice)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(5000);
    TraceFile file;
    ASSERT_EQ(file.openBytes(multiBlockImage(recs)), TraceStatus::Ok)
        << file.error();
    ASSERT_GT(file.index().blocks.size(), 10u);
    EXPECT_EQ(file.recordCount(), recs.size());

    const std::uint64_t lo = recs.front().cycle;
    const std::uint64_t hi = recs.back().cycle + 1;
    const std::uint64_t span = hi - lo;
    for (const auto &[begin, end] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, UINT64_MAX},                       // everything
             {lo + span / 4, lo + span / 2},        // interior window
             {lo, lo + 1},                          // first cycle only
             {hi - 1, hi},                          // last cycle only
             {hi + 100, hi + 200},                  // past the end
             {lo + span / 3, lo + span / 3},        // empty window
         }) {
        std::vector<pebs::PebsRecord> expected;
        for (const pebs::PebsRecord &r : recs)
            if (r.cycle >= begin && r.cycle < end)
                expected.push_back(r);
        const auto got = drainAll(file.cursorForCycles(begin, end));
        EXPECT_TRUE(recordsEqual(got, expected))
            << "window [" << begin << ", " << end << ") yielded "
            << got.size() << " records, expected " << expected.size();
    }

    // Record-range cursors are exact slices too.
    for (const auto &[first, end] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, recs.size()}, {100, 101}, {1000, 4000},
             {recs.size() - 1, recs.size()}, {5000, 9000}}) {
        const auto got = drainAll(file.cursorForRecords(first, end));
        const std::size_t b = std::min<std::size_t>(first, recs.size());
        const std::size_t e = std::min<std::size_t>(end, recs.size());
        EXPECT_TRUE(recordsEqual(
            got, {recs.begin() + b, recs.begin() + e}))
            << "records [" << first << ", " << end << ")";
    }
}

TEST(TraceFileSeek, ReadAllMatchesCapturedRecords)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(2000);
    TraceFile file;
    ASSERT_EQ(file.openBytes(multiBlockImage(recs)), TraceStatus::Ok)
        << file.error();
    EXPECT_TRUE(file.payloadChecksumOk());
    Trace decoded;
    ASSERT_EQ(file.readAll(&decoded), TraceStatus::Ok);
    EXPECT_TRUE(recordsEqual(decoded.records, recs));
    EXPECT_EQ(decoded.meta.workload, syntheticMeta().workload);
}

TEST(TraceFileSeek, CursorBytesReadSumsTheBlocksItDecoded)
{
    struct Discard : analysis::RecordSink
    {
        void onRecord(const pebs::PebsRecord &) override {}
    } sink;
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(5000);
    TraceFile file;
    ASSERT_EQ(file.openBytes(multiBlockImage(recs)), TraceStatus::Ok)
        << file.error();
    ASSERT_GT(file.index().blocks.size(), 10u);

    // A window cursor loads exactly the blocks whose cycle range meets
    // the window, and charges each one's encoded size.
    const std::uint64_t lo = recs.front().cycle;
    const std::uint64_t span = recs.back().cycle + 1 - lo;
    for (const auto &[begin, end] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {lo + span * 45 / 100, lo + span * 55 / 100},
             {lo + span / 4, lo + span / 2},
             {lo, lo + 1},
         }) {
        std::uint64_t expected = 0;
        for (const col::BlockInfo &b : file.index().blocks)
            if (b.firstCycle < end && b.lastCycle >= begin)
                expected += b.blobBytes();
        const std::unique_ptr<RecordCursor> cur =
            file.cursorForCycles(begin, end);
        EXPECT_EQ(cur->bytesRead(), 0u); // nothing decoded yet
        cur->drain(sink);
        ASSERT_EQ(cur->status(), TraceStatus::Ok);
        EXPECT_GT(expected, 0u);
        EXPECT_LT(expected, file.recordBlobBytes());
        EXPECT_EQ(cur->bytesRead(), expected)
            << "window [" << begin << ", " << end << ")";
    }

    // A full cursor decodes the whole record blob, once.
    const std::unique_ptr<RecordCursor> full = file.cursor();
    full->drain(sink);
    ASSERT_EQ(full->status(), TraceStatus::Ok);
    EXPECT_EQ(full->bytesRead(), file.recordBlobBytes());
}

TEST(TraceFileSeek, CorruptBlockIsLatchedAsTypedCursorError)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(3000);
    std::vector<std::uint8_t> image = multiBlockImage(recs);

    // The last 8 payload bytes hold the index offset; the byte just
    // before the index is the last record-blob byte.
    std::uint64_t index_offset = 0;
    const std::size_t off_pos = image.size() - 16;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(image[off_pos + i]) << (8 * i);
    image[kTraceHeaderSize + index_offset - 1] ^= 0x20;

    // Opening still succeeds: blocks are not decoded up front.
    TraceFile file;
    ASSERT_EQ(file.openBytes(image), TraceStatus::Ok) << file.error();

    auto cur = file.cursor();
    pebs::PebsRecord rec;
    while (cur->next(&rec)) {
    }
    EXPECT_EQ(cur->status(), TraceStatus::Corrupt);

    // A whole-file decode meets the same block, and the whole-payload
    // checksum rejects the image outright.
    Trace decoded;
    EXPECT_EQ(file.readAll(&decoded), TraceStatus::Corrupt);
    EXPECT_FALSE(file.payloadChecksumOk());
}

TEST(TraceFileSeek, CorruptIndexAndTruncationAreTypedAtOpen)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(1500);
    const std::vector<std::uint8_t> pristine = multiBlockImage(recs);

    // Flip a byte inside the serialized index: checksum mismatch.
    std::uint64_t index_offset = 0;
    const std::size_t off_pos = pristine.size() - 16;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(pristine[off_pos + i]) << (8 * i);
    std::vector<std::uint8_t> bad_index = pristine;
    bad_index[kTraceHeaderSize + index_offset + 2] ^= 0x01;
    TraceFile file;
    EXPECT_EQ(file.openBytes(bad_index), TraceStatus::Corrupt);
    EXPECT_FALSE(file.error().empty());

    // An index offset pointing outside the payload is Corrupt, not UB.
    std::vector<std::uint8_t> bad_offset = pristine;
    for (int i = 0; i < 8; ++i)
        bad_offset[off_pos + i] = 0xff;
    EXPECT_EQ(file.openBytes(bad_offset), TraceStatus::Corrupt);

    // Truncations at every boundary remain typed.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{12}, std::size_t{27},
          pristine.size() / 2, pristine.size() - 1}) {
        std::vector<std::uint8_t> short_image(
            pristine.begin(), pristine.begin() + cut);
        EXPECT_EQ(file.openBytes(std::move(short_image)),
                  TraceStatus::Truncated)
            << "prefix of " << cut << " bytes";
    }
}

TEST(TraceChecksum, EveryByteAndWordOfABlockIsChecked)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(700);
    const std::vector<std::uint8_t> pristine = multiBlockImage(recs);
    TraceFile file;
    ASSERT_EQ(file.openBytes(pristine), TraceStatus::Ok) << file.error();
    ASSERT_GE(file.index().blocks.size(), 3u);

    std::uint64_t rng = 0x13198a2e03707344ull;
    bool ragged_tail = false;
    for (const col::BlockInfo &b : file.index().blocks) {
        const std::size_t at =
            kTraceHeaderSize + static_cast<std::size_t>(
                                   file.index().blobOffset + b.blobOffset);
        const std::size_t bytes = static_cast<std::size_t>(b.blobBytes());
        ragged_tail |= bytes % 8 != 0;

        // The edit must change the block's checksum (a decode check
        // could also reject it) and surface as Corrupt.
        const auto block_status = [&](std::vector<std::uint8_t> image) {
            EXPECT_EQ(wire::wordHash(image.data() + at, bytes) == b.checksum,
                      image == pristine);
            TraceFile f;
            // Blocks are not read at open: an edit surfaces in the
            // cursor that decodes the block.
            EXPECT_EQ(f.openBytes(std::move(image)), TraceStatus::Ok);
            const std::unique_ptr<RecordCursor> cur = f.cursorForRecords(
                b.firstRecord, b.firstRecord + b.records);
            struct Discard : analysis::RecordSink
            {
                void onRecord(const pebs::PebsRecord &) override {}
            } sink;
            cur->drain(sink);
            return cur->status();
        };
        ASSERT_EQ(block_status(pristine), TraceStatus::Ok);

        for (std::size_t k = 0; k < bytes; ++k) {
            std::vector<std::uint8_t> image = pristine;
            image[at + k] ^= 0xff;
            EXPECT_EQ(block_status(std::move(image)), TraceStatus::Corrupt)
                << "byte " << k << " of " << bytes;
        }
        for (std::size_t word = 0; word + 8 <= bytes; word += 8) {
            for (int trial = 0; trial < 3; ++trial) {
                std::vector<std::uint8_t> image = pristine;
                const std::uint64_t flip = nextRand(&rng); // never 0
                for (int i = 0; i < 8; ++i)
                    image[at + word + i] ^=
                        static_cast<std::uint8_t>(flip >> (8 * i));
                EXPECT_EQ(block_status(std::move(image)),
                          TraceStatus::Corrupt)
                    << "word at byte " << word << " of " << bytes;
            }
        }
    }
    // At least one block ends in bytes the checksum reads one by one.
    EXPECT_TRUE(ragged_tail);
}

TEST(TraceChecksum, Version7HeaderIsBadVersion)
{
    // v7 files used byte-serial FNV-1a checksums; v8 readers refuse
    // them by version rather than reporting every checksum wrong.
    std::vector<std::uint8_t> image = multiBlockImage(syntheticRecords(64));
    ASSERT_EQ(kTraceVersion, 8u);
    image[4] = 7;
    for (int i = 5; i < 8; ++i)
        image[i] = 0;
    TraceFile file;
    EXPECT_EQ(file.openBytes(std::move(image)), TraceStatus::BadVersion);
    EXPECT_NE(file.error().find("version 7"), std::string::npos)
        << file.error();
}

// ---------------------------------------------------------------------
// Config-section bounds: a run the machine cannot model opens Corrupt,
// before anything rebuilds its workload or address space from it
// ---------------------------------------------------------------------

/** Open syntheticMeta() after @p edit; @p error gets the open's error. */
TraceStatus
openEditedConfig(const std::function<void(TraceMeta *)> &edit,
                 std::string *error)
{
    TraceMeta meta = syntheticMeta();
    edit(&meta);
    TraceWriter writer(meta);
    writer.appendAll(syntheticRecords(16));
    TraceFile file;
    const TraceStatus status = file.openBytes(writer.finalize());
    *error = file.error();
    return status;
}

TEST(TraceConfigBounds, ThreadCountWithinCoreRange)
{
    std::string error;
    for (int threads : {0, -1, 33, INT_MAX}) {
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->build.numThreads = threads;
                  }, &error),
                  TraceStatus::Corrupt)
            << threads;
        EXPECT_NE(error.find("invalid thread count"), std::string::npos)
            << error;
    }
    for (int threads : {1, 32})
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->build.numThreads = threads;
                      m->machine.numCores = threads;
                  }, &error),
                  TraceStatus::Ok)
            << threads << ": " << error;
}

TEST(TraceConfigBounds, ScaleFinitePositiveAndCapped)
{
    std::string error;
    for (double scale : {std::nan(""), -3.0, 0.0, HUGE_VAL,
                         workloads::kMaxScale * 2}) {
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->build.scale = scale;
                  }, &error),
                  TraceStatus::Corrupt)
            << scale;
        EXPECT_NE(error.find("invalid workload scale"), std::string::npos)
            << error;
    }
    for (double scale : {0.25, workloads::kMaxScale})
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->build.scale = scale;
                  }, &error),
                  TraceStatus::Ok)
            << scale << ": " << error;
}

TEST(TraceConfigBounds, CoreCountWithinSharerMask)
{
    // 2^31 - 1 cores would build about two billion stack regions.
    std::string error;
    for (int cores : {0, -1, 33, INT_MAX}) {
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->machine.numCores = cores;
                  }, &error),
                  TraceStatus::Corrupt)
            << cores;
        EXPECT_NE(error.find("invalid core count"), std::string::npos)
            << error;
    }
    for (int cores : {1, sim::kMaxCores})
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->machine.numCores = cores;
                      m->build.numThreads = cores;
                  }, &error),
                  TraceStatus::Ok)
            << cores << ": " << error;
}

TEST(TraceConfigBounds, ThreadCountEqualsCoreCount)
{
    // Each count alone is in range; a replay of such a file would model
    // a machine the capture never ran on.
    std::string error;
    for (const auto &[threads, cores] :
         {std::pair{2, 8}, std::pair{32, 1}, std::pair{1, 32},
          std::pair{4, 5}}) {
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->build.numThreads = threads;
                      m->machine.numCores = cores;
                  }, &error),
                  TraceStatus::Corrupt)
            << threads << "/" << cores;
        EXPECT_NE(error.find("differs from core count"), std::string::npos)
            << error;
    }
    for (int n : {1, 4, sim::kMaxCores})
        EXPECT_EQ(openEditedConfig([&](TraceMeta *m) {
                      m->build.numThreads = n;
                      m->machine.numCores = n;
                  }, &error),
                  TraceStatus::Ok)
            << n << ": " << error;
}

// ---------------------------------------------------------------------
// Seeded mutation sweep: TraceFile is the only reader of untrusted trace
// bytes, so every damaged image must yield a typed status
// ---------------------------------------------------------------------

TEST(TraceFileMutation, SeededMutationsYieldTypedStatuses)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(1200);
    const std::vector<std::uint8_t> pristine = multiBlockImage(recs, 128);
    const std::size_t size = pristine.size();
    // The trailing u64 index offset sits just before the 8-byte trailer;
    // the block index runs from that offset up to it.
    const std::size_t off_pos = size - kTraceTrailerSize - 8;
    std::uint64_t index_offset = 0;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(pristine[off_pos + i]) << (8 * i);
    const std::size_t index_pos = kTraceHeaderSize + index_offset;
    ASSERT_LT(index_pos, off_pos);
    const std::uint64_t lo = recs.front().cycle;
    const std::uint64_t span = recs.back().cycle + 1 - lo;

    struct Collect : analysis::RecordSink
    {
        std::vector<pebs::PebsRecord> recs;
        void onRecord(const pebs::PebsRecord &r) override
        {
            recs.push_back(r);
        }
    };
    const auto typed = [](TraceStatus status) {
        return static_cast<int>(status) <=
               static_cast<int>(TraceStatus::NonMonotonic);
    };

    std::uint64_t rng = 0x5eed'0f'7ace'f11eull;
    const auto below = [&](std::uint64_t n) { return nextRand(&rng) % n; };
    constexpr int kImages = 2000;
    int rejected_at_open = 0;
    int rejected_later = 0;
    int intact = 0;
    for (int m = 0; m < kImages; ++m) {
        std::vector<std::uint8_t> image = pristine;
        std::string what;
        switch (m % 4) {
          case 0: // 1-4 byte overwrites anywhere
            for (std::uint64_t k = 0, n = 1 + below(4); k < n; ++k)
                image[below(size)] = static_cast<std::uint8_t>(below(256));
            what = "overwrite";
            break;
          case 1: // truncation
            image.resize(below(size));
            what = "truncate to " + std::to_string(image.size());
            break;
          case 2: // overwrites inside the block index
            for (std::uint64_t k = 0, n = 1 + below(4); k < n; ++k)
                image[index_pos + below(off_pos - index_pos)] =
                    static_cast<std::uint8_t>(below(256));
            what = "index overwrite";
            break;
          default: // the index offset: a random byte, or a new target
            if (m % 8 == 3) {
                image[off_pos + below(8)] =
                    static_cast<std::uint8_t>(below(256));
            } else {
                const std::uint64_t target = below(off_pos - kTraceHeaderSize);
                for (int i = 0; i < 8; ++i)
                    image[off_pos + i] =
                        static_cast<std::uint8_t>(target >> (8 * i));
            }
            what = "index offset overwrite";
            break;
        }
        SCOPED_TRACE("image " + std::to_string(m) + ": " + what);

        TraceFile file;
        TraceStatus opened = TraceStatus::Ok;
        ASSERT_NO_THROW(opened = file.openBytes(image));
        ASSERT_TRUE(typed(opened)) << int(opened);
        if (opened != TraceStatus::Ok) {
            ++rejected_at_open;
            continue;
        }
        bool checksum_ok = false;
        ASSERT_NO_THROW(checksum_ok = file.payloadChecksumOk());
        Trace decoded;
        TraceStatus all = TraceStatus::Ok;
        ASSERT_NO_THROW(all = file.readAll(&decoded));
        ASSERT_TRUE(typed(all)) << int(all);

        const std::uint64_t begin = lo + below(span);
        const std::uint64_t end = begin + 1 + below(span);
        Collect window;
        TraceStatus windowed = TraceStatus::Ok;
        ASSERT_NO_THROW({
            const std::unique_ptr<RecordCursor> cur =
                file.cursorForCycles(begin, end);
            cur->drain(window);
            windowed = cur->status();
        });
        ASSERT_TRUE(typed(windowed)) << int(windowed);

        if (!checksum_ok || all != TraceStatus::Ok ||
                windowed != TraceStatus::Ok) {
            ++rejected_later;
            continue;
        }
        // Every check passed: the image must still hold the original
        // stream, whole and windowed.
        ++intact;
        EXPECT_TRUE(recordsEqual(decoded.records, recs));
        std::vector<pebs::PebsRecord> expected;
        for (const pebs::PebsRecord &r : recs)
            if (r.cycle >= begin && r.cycle < end)
                expected.push_back(r);
        EXPECT_TRUE(recordsEqual(window.recs, expected));
    }
    // The sweep reached every stage: opens that fail, opens whose
    // later checks fail, and (same-value overwrites) intact images.
    EXPECT_GT(rejected_at_open, 0);
    EXPECT_GT(rejected_later, 0);
    EXPECT_EQ(rejected_at_open + rejected_later + intact, kImages);
}

// ---------------------------------------------------------------------
// Streaming replay memory: O(block x shards), not O(trace)
// ---------------------------------------------------------------------

TEST(StreamingReplay, PeakBufferedRecordsIsBlockBound)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    ASSERT_NE(kmeans, nullptr);
    const Trace captured = captureTrace(*kmeans);
    ASSERT_FALSE(captured.records.empty());

    // Tile the capture into a stream far larger than the block bound a
    // materializing replay would have to hold wholesale.
    constexpr std::size_t kBlock = 256;
    constexpr int kShards = 4;
    Trace big;
    big.meta = captured.meta;
    const std::uint64_t stride = captured.records.back().cycle + 1;
    while (big.records.size() < 50 * kBlock * kShards) {
        const std::uint64_t c =
            std::uint64_t(big.records.size() / captured.records.size());
        for (pebs::PebsRecord r : captured.records) {
            r.cycle += stride * c;
            big.records.push_back(r);
        }
    }

    const std::string path =
        (fs::temp_directory_path() / "laser_codec_memcap.ltrace")
            .string();
    {
        TraceWriter writer(big.meta, kBlock);
        writer.appendAll(big.records);
        ASSERT_EQ(writer.writeFile(path), TraceStatus::Ok);
    }
    TraceFile file;
    ASSERT_EQ(file.open(path), TraceStatus::Ok) << file.error();
    TraceReplayer env(file.meta(), file);
    ASSERT_TRUE(env.ok()) << env.error();

    resetBufferedRecordsPeak();
    ParallelReplayer::Options opt;
    opt.shards = kShards;
    ParallelReplayer parallel(env, opt);
    EXPECT_EQ(parallel.state().totalRecords, big.records.size());

    const std::size_t peak = bufferedRecordsPeak();
    EXPECT_GT(peak, 0u);
    // One decoded block per shard cursor, with 2x slack for block
    // handoff; a materializing path would hold all records at once.
    EXPECT_LE(peak, 2 * kBlock * kShards)
        << "streaming replay buffered " << peak << " of "
        << big.records.size() << " records";
    EXPECT_LT(peak, big.records.size() / 10);

    // The streamed digest still produces the report of the live
    // pipeline over the record vector.
    detect::DetectorConfig cfg;
    cfg.sav = big.meta.pebs.sav;
    detect::DetectorPipeline direct(env.context(), cfg);
    analysis::drain(big.records, direct);
    EXPECT_TRUE(detect::reportsIdentical(direct.finish(big.meta.runtimeCycles),
                                         parallel.replay(cfg)));
    std::remove(path.c_str());
}

} // namespace
} // namespace laser::trace
