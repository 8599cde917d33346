/**
 * @file
 * Columnar record encoding for LSRT traces: the per-column block codecs
 * and the seekable footer block index.
 *
 * A trace stores its record stream as fixed-size blocks (the last one
 * ragged). Within a block each record field is a column — pc, data
 * address, core, cycle — and each column always uses the same codec:
 *
 *   pc, data_addr, core  DictPack: sorted dictionary (delta varints) +
 *                        bit-packed dictionary indices — few distinct pcs
 *                        and cores, and addresses that cluster in a few
 *                        tight regions
 *   cycle                DeltaForPack: first value + zigzag deltas,
 *                        frame-of-reference bit-packed in mini-blocks of
 *                        128 (per-group base and width, so an outlier
 *                        delta widens only its group)
 *
 * Only columnar.cc knows this map: callers pass the column to
 * encodeColumn/decodeColumn. Both codecs are deterministic, so encoding
 * a decoded trace reproduces the original bytes — the byte-exact
 * round-trip guarantee of the format.
 *
 * The BlockIndex is the file's seek structure: per block it records the
 * record count, the cycle range, each column's encoded size (offsets
 * are cumulative) and a checksum of the block's bytes. A reader
 * binary-searches the index for a cycle window and decodes only the
 * overlapping blocks — no prefix decode, no whole-file checksum pass.
 * The index carries its own trailing checksum and a checksum of the
 * meta (config + results) section, so the seek path still verifies every
 * byte it actually reads. Every one of these checksums is
 * wire::wordHash, which consumes 8 bytes per step.
 *
 * The decoders unpack bit-packed fields with one unaligned 8-byte load
 * and a shift each while 8 bytes remain readable in the column, and
 * read the last few fields byte by byte; either way they keep every
 * strictness check of decodeColumn().
 */

#ifndef LASER_TRACE_COLUMNAR_H
#define LASER_TRACE_COLUMNAR_H

#include <cstdint>
#include <string>
#include <vector>

namespace laser::trace::columnar {

/** Column order within a block (stable wire order). */
enum Column : std::size_t {
    kColPc = 0,
    kColAddr = 1,
    kColCore = 2,
    kColCycle = 3,
};

constexpr std::size_t kColumnCount = 4;

/** Printable column name ("pc", "data_addr", "core", "cycle"). */
const char *columnName(std::size_t column);

/** Default records per block (overridable per TraceWriter for tests). */
constexpr std::size_t kDefaultBlockRecords = 4096;

/**
 * Hard upper bound on records per block, enforced on both sides:
 * TraceWriter clamps its block size to it and BlockIndex::decode rejects
 * entries beyond it. Bit-packed columns can be sub-byte per record, so
 * without this bound a tiny crafted index could declare counts that
 * decode "successfully" into allocations far beyond the file size.
 */
constexpr std::size_t kMaxBlockRecords = std::size_t{1} << 20;

/** Append @p vals encoded with @p column's codec to @p out. */
void encodeColumn(std::size_t column,
                  const std::vector<std::uint64_t> &vals,
                  std::vector<std::uint8_t> *out);

/**
 * Strict decode of one @p column: exactly @p count values from exactly
 * [data, data+size). Any structural violation — short or trailing
 * bytes, non-canonical varints, out-of-range dictionary indices,
 * nonzero padding bits — returns false. @p out is resized to @p count
 * either way; its values mean something only when the decode succeeds.
 */
bool decodeColumn(std::size_t column, const std::uint8_t *data,
                  std::size_t size, std::size_t count,
                  std::vector<std::uint64_t> *out);

/** One block's index entry. */
struct BlockInfo
{
    /** Derived at build/decode time (not serialized): global index of
     *  the block's first record, and the block's offset in the blob. */
    std::uint64_t firstRecord = 0;
    std::uint64_t blobOffset = 0;

    std::uint64_t records = 0;
    /** Cycle of the block's first / last record. */
    std::uint64_t firstCycle = 0;
    std::uint64_t lastCycle = 0;
    std::uint64_t columnBytes[kColumnCount] = {};
    /** wire::wordHash over the block's encoded bytes (all columns). */
    std::uint64_t checksum = 0;

    std::uint64_t
    blobBytes() const
    {
        std::uint64_t n = 0;
        for (std::size_t c = 0; c < kColumnCount; ++c)
            n += columnBytes[c];
        return n;
    }

    /** Offset of @p column within the block's encoded bytes. */
    std::uint64_t
    columnOffset(std::size_t column) const
    {
        std::uint64_t off = 0;
        for (std::size_t c = 0; c < column; ++c)
            off += columnBytes[c];
        return off;
    }
};

/** The footer seek structure of a trace. */
struct BlockIndex
{
    /** Total records across all blocks. */
    std::uint64_t records = 0;
    /** Offset of the record blob within the payload (= size of the
     *  config + results sections it follows). */
    std::uint64_t blobOffset = 0;
    /** wire::wordHash over payload[0, blobOffset): lets the seek path
     *  verify the meta sections without a whole-payload checksum pass. */
    std::uint64_t metaChecksum = 0;
    std::vector<BlockInfo> blocks;

    /** Total encoded record-blob bytes. */
    std::uint64_t blobBytes() const;

    /** Serialize (including the trailing self-checksum) onto @p out. */
    void encode(std::vector<std::uint8_t> *out) const;

    /**
     * Strict decode from exactly [data, data+size): structural
     * violations and self-checksum mismatches return false with a
     * detail message in @p err. Cycle ordering across blocks is *not*
     * checked here (the full parse checks the records themselves; the
     * seek path checks the ranges) — a freshly decoded index is
     * structurally sound but not yet trusted for seeking.
     */
    bool decode(const std::uint8_t *data, std::size_t size,
                std::string *err);

    /** True when block cycle ranges are ordered (seekable). */
    bool cyclesOrdered() const;

    /**
     * Blocks overlapping the half-open cycle window [begin, end):
     * returns [firstBlock, endBlock). Requires cyclesOrdered().
     */
    void blocksForCycles(std::uint64_t begin, std::uint64_t end,
                         std::size_t *first_block,
                         std::size_t *end_block) const;

    /** Block containing global record index @p record. */
    std::size_t blockForRecord(std::uint64_t record) const;
};

} // namespace laser::trace::columnar

#endif // LASER_TRACE_COLUMNAR_H
