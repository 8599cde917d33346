/**
 * @file
 * Durable PEBS trace format: capture a monitored run once, replay the
 * detector many times.
 *
 * The paper stresses that LASERDETECT's thresholds are "adjustable
 * offline without rerunning the program" (Section 4); this module makes
 * that literal. A trace file persists everything a replay needs: the
 * capture configuration (workload + build options + machine + PEBS +
 * baseline-model configuration), the run's results (machine statistics,
 * runtime, the rendered /proc maps text) and the full record stream in
 * canonical (non-decreasing cycle) order — the order every analysis
 * sink consumes, produced by analysis::sortByCycle over the raw
 * driver-delivery stream.
 *
 * File layout (all multi-byte header/trailer fields little-endian):
 *
 *   offset  size  field
 *   0       4     magic "LSRT"
 *   4       4     u32 format version (kTraceVersion)
 *   8       4     u32 endianness marker (kTraceEndianMarker)
 *   12      8     u64 config hash (cache key; FNV-1a of config section)
 *   20      8     u64 payload size in bytes (n)
 *   28      n     payload
 *   28+n    8     u64 FNV-1a checksum of the payload
 *
 * Format v7 payload (columnar; see trace/columnar.h for the codecs):
 *
 *   config section     varint/zigzag-encoded capture configuration
 *   results section    machine stats, runtime, /proc maps text
 *   record blob        records in fixed-size blocks; within a block
 *                      each field (pc / data addr / core / cycle) is a
 *                      column encoded with that column's fixed codec:
 *                      sorted dictionary + bit-packed indices for pc,
 *                      data addr and core, delta frame-of-reference
 *                      packing for cycle
 *   block index        per block: record count, cycle range, per-column
 *                      encoded size, FNV-1a block checksum;
 *                      carries a checksum of the config+results
 *                      sections and its own trailing self-checksum
 *   u64 index offset   absolute offset of the block index within the
 *                      payload (fixed-width; always the last 8 payload
 *                      bytes)
 *
 * The block index makes the file seekable: trace::TraceFile — the one
 * reader, and its cursor the one record decoder — reads the header, the
 * trailing index offset and the index, binary-searches the blocks for a
 * record range or cycle window, and decodes only the overlapping blocks
 * — no prefix decode and no whole-file checksum pass on the seek path
 * (the meta/index/block checksums cover every byte it reads).
 * TraceFile::payloadChecksumOk() checks the trailer for callers that
 * want the whole payload verified.
 *
 * Within the payload, integers are LEB128 varints (signed values
 * zigzag-encoded), doubles are fixed 8-byte IEEE bit patterns, strings
 * are length-prefixed.
 *
 * Only kTraceVersion is read: every other version is BadVersion. The
 * config hash is version-scoped, so a format bump re-keys every cache;
 * a sweep cache treats a stale file as a miss, re-simulates and
 * overwrites it.
 *
 * Parsing is strict: wrong magic, foreign endianness, any other version,
 * short files, checksum/hash mismatches and non-monotonic record cycle
 * streams each yield a typed TraceStatus, never undefined behaviour. A
 * trace that parses Ok round-trips byte-exactly (every codec is
 * deterministic).
 */

#ifndef LASER_TRACE_TRACE_H
#define LASER_TRACE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "pebs/monitor.h"
#include "pebs/record.h"
#include "sim/machine.h"
#include "trace/columnar.h"
#include "workloads/workload.h"

namespace laser::trace {

constexpr std::uint32_t kTraceVersion = 7;
constexpr char kTraceMagic[4] = {'L', 'S', 'R', 'T'};
constexpr std::uint32_t kTraceEndianMarker = 0x01020304;
/** Canonical trace-file extension (also used by the sweep cache). */
constexpr const char *kTraceExtension = ".ltrace";
/** Fixed header / trailer sizes (see the file-layout table above). */
constexpr std::size_t kTraceHeaderSize = 28;
constexpr std::size_t kTraceTrailerSize = 8;

/**
 * Typed outcome of every trace parse/IO operation. [[nodiscard]] on the
 * type makes the compiler flag a dropped status from every function
 * returning one (declared in a header or not; -Werror=unused-result
 * turns that into an error).
 */
enum class [[nodiscard]] TraceStatus : std::uint8_t {
    Ok,
    IoError,       ///< file unreadable/unwritable
    BadMagic,      ///< not a LASER trace
    BadVersion,    ///< any format version other than kTraceVersion
    BadEndianness, ///< produced on a foreign-endian machine
    Truncated,     ///< stream ends mid-structure
    Corrupt,       ///< checksum/hash mismatch or malformed content
    NonMonotonic,  ///< record cycles decrease (breaks time-window sharding)
};

/** Printable name of a status ("ok", "bad magic", ...). */
const char *traceStatusName(TraceStatus status);

/** Run metadata persisted with every trace. */
struct TraceMeta
{
    // -- Capture configuration; participates in configHash(). ---------
    /** Registered workload name (replay rebuilds the program from it). */
    std::string workload;
    /**
     * Scheme label ("native", "laser-detect", "vtune", "sheriff-detect",
     * "sheriff-protect"); names the stream's record encoding.
     */
    std::string scheme = "laser-detect";
    workloads::BuildOptions build{};
    sim::MachineConfig machine{};
    pebs::PebsConfig pebs{};
    /** Baseline-model configurations (consumed by their schemes only). */
    baselines::VTuneConfig vtune{};
    baselines::SheriffConfig sheriff{};

    // -- Capture results; not hashed. ---------------------------------
    sim::MachineStats stats{};
    /** Modeled wall-clock runtime of the monitored run, cycles. */
    std::uint64_t runtimeCycles = 0;
    /** The /proc/<pid>/maps text the detector's PC filter parses. */
    std::string mapsText;
};

/**
 * Content hash of a capture configuration: the cache key under which a
 * trace is stored. Computable before running anything (only the config
 * section of @p meta is read), and stored in the file header so a cache
 * can index traces without decoding payloads. Version-scoped (it
 * hashes u32(kTraceVersion) ahead of the config section): bumping
 * kTraceVersion re-keys every cache.
 */
std::uint64_t configHash(const TraceMeta &meta);

/** A decoded trace: metadata + records in canonical cycle order. */
struct Trace
{
    TraceMeta meta;
    std::vector<pebs::PebsRecord> records;
};

/**
 * Streaming trace encoder (always writes kTraceVersion).
 *
 * Records are buffered per column; every @p block_records appends the
 * writer encodes one block (each column with its codec) into the
 * growing record blob, so writer memory is O(block), not O(trace).
 *
 * Appended records must follow the canonical stream contract
 * (non-decreasing cycles; sort raw driver output with
 * analysis::sortByCycle first). A violation is latched: finalize()
 * still encodes the bytes (so the reader's rejection paths can be
 * exercised), but writeFile() refuses with NonMonotonic rather than
 * persist a file every conforming reader would reject.
 *
 * @code
 *   TraceWriter w(meta);
 *   w.appendAll(sorted_records);
 *   w.writeFile("run.ltrace");
 * @endcode
 */
class TraceWriter
{
  public:
    explicit TraceWriter(
        TraceMeta meta,
        std::size_t block_records = columnar::kDefaultBlockRecords);

    /** Append one record (encoded block-at-a-time). */
    void append(const pebs::PebsRecord &rec);
    void appendAll(const std::vector<pebs::PebsRecord> &recs);

    /** Complete file image: header + payload + checksum trailer. */
    [[nodiscard]] std::vector<std::uint8_t> finalize() const;

    /** Write the file image atomically (temp file + rename). */
    TraceStatus writeFile(const std::string &path) const;

    /** False once an appended record's cycle went backwards. */
    bool monotonic() const { return monotonic_; }

    const TraceMeta &meta() const { return meta_; }
    std::size_t recordCount() const { return recordCount_; }

  private:
    void flushBlock();

    TraceMeta meta_;
    std::size_t blockRecords_;
    /** Column buffers of the current (unflushed) block. */
    std::vector<std::uint64_t> pending_[columnar::kColumnCount];
    /** Encoded bytes of all flushed blocks. */
    std::vector<std::uint8_t> blob_;
    /** Index entries of all flushed blocks. */
    columnar::BlockIndex index_;
    std::size_t recordCount_ = 0;
    std::uint64_t prevCycle_ = 0;
    bool monotonic_ = true;
};

/** Convenience: encode and write a whole trace. */
TraceStatus writeTraceFile(const Trace &trace, const std::string &path);

namespace detail {

/** Parsed fixed header fields. */
struct HeaderInfo
{
    std::uint64_t configHash = 0;
    std::uint64_t payloadSize = 0;
};

/**
 * Validate the fixed 28-byte header (magic, version == kTraceVersion,
 * endianness) and extract its fields; TraceFile::open's first check.
 */
TraceStatus parseTraceHeader(const std::uint8_t *data, std::size_t size,
                             HeaderInfo *out, std::string *err);

/**
 * Parse the config + results sections at the start of a payload.
 * On Ok, *consumed is the meta-section size in bytes.
 */
TraceStatus parseMetaSections(
    const std::uint8_t *payload, std::size_t size, TraceMeta *meta,
    std::size_t *consumed, std::string *err);

} // namespace detail

} // namespace laser::trace

#endif // LASER_TRACE_TRACE_H
