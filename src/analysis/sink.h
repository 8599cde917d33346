/**
 * @file
 * The scheme-agnostic analysis-sink interface.
 *
 * LASER's central property (Section 4) is that detection is a pure
 * function of the record stream of (pc, data address, core, cycle)
 * tuples. This header defines the interface a stream consumer
 * implements (detect::DetectorPipeline is the one in the library), so
 * core::ExperimentRunner (over a fresh capture's stream) and
 * trace::TraceReplayer (over a stored one) drive detection through
 * identical plumbing.
 *
 * A sink may also take records a run at a time, as parallel columns —
 * the layout a trace file's decoded blocks already have. The default
 * onColumns() rebuilds each record and calls onRecord(), so a sink that
 * only implements onRecord() sees the same stream either way; a sink
 * with a cheaper column-wise pass (detect::DetectorPipeline) overrides
 * it.
 *
 * Record-field interpretation is scheme-dependent (a "laser-detect"
 * record is a PEBS HITM sample; a "sheriff" record encodes one sync
 * operation), but the stream contract is shared: records arrive in
 * non-decreasing cycle order, exactly once, followed by nothing.
 */

#ifndef LASER_ANALYSIS_SINK_H
#define LASER_ANALYSIS_SINK_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pebs/record.h"

namespace laser::analysis {

/**
 * A run of consecutive records as parallel columns: record i is
 * (pc[i], dataAddr[i], core[i], cycle[i]).
 */
struct RecordColumns
{
    const std::uint64_t *pc = nullptr;
    const std::uint64_t *dataAddr = nullptr;
    /** Core ids as their stored 64-bit two's-complement pattern. */
    const std::uint64_t *core = nullptr;
    const std::uint64_t *cycle = nullptr;
    std::size_t size = 0;

    /** Record @p i as a PebsRecord. */
    pebs::PebsRecord
    record(std::size_t i) const
    {
        pebs::PebsRecord rec;
        rec.pc = pc[i];
        rec.dataAddr = dataAddr[i];
        rec.core = static_cast<int>(static_cast<std::int64_t>(core[i]));
        rec.cycle = cycle[i];
        return rec;
    }
};

/** Consumer of one analysis-record stream. */
class RecordSink
{
  public:
    virtual ~RecordSink() = default;

    /** One record; calls arrive in non-decreasing cycle order. */
    virtual void onRecord(const pebs::PebsRecord &rec) = 0;

    /**
     * The next cols.size records of the stream, in order. The default
     * calls onRecord() once per record.
     */
    virtual void onColumns(const RecordColumns &cols);
};

/** Feed an already cycle-ordered stream through a sink. */
void drain(const std::vector<pebs::PebsRecord> &records, RecordSink &sink);

/**
 * Restore canonical time order: a stable sort by cycle, preserving
 * driver-delivery order among equal cycles. Per-core PEBS buffers are
 * drained in same-core bursts, and this sort recovers the interleaving
 * the cache-line model needs; trace capture, the producer of every
 * canonical stream, applies it.
 */
void sortByCycle(std::vector<pebs::PebsRecord> *records);

} // namespace laser::analysis

#endif // LASER_ANALYSIS_SINK_H
