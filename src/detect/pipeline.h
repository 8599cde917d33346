/**
 * @file
 * LASERDETECT: the HITM record-processing pipeline (Section 4, Figure 4)
 * as a thin streaming pass over DetectorState, and the shared report
 * builder.
 *
 * Records stream in from the driver; each passes through:
 *  1. PC filtering against the parsed /proc maps (application/library
 *     PCs kept, everything else dropped as spurious);
 *  2. stack-data filtering (thread stacks are not shared);
 *  3. aggregation by PC and source line (rate threshold applied at
 *     reporting time; adjustable offline without rerunning);
 *  4. load/store-set decoding of the record's PC;
 *  5. the cache-line model, yielding true-/false-sharing events
 *     attributed to the incoming record's source line;
 *  6. a periodic rate check that invokes LASERREPAIR when false sharing
 *     is significant (Section 4.4).
 *
 * The pipeline is deliberately robust to the record errors Section 3
 * characterizes: wrong data addresses never affect source-location
 * aggregation, and small PC skids usually stay within the same source
 * line. When data addresses are too noisy to classify (the write-write
 * pattern of linear_regression at -O3), a line's contention type is
 * reported as Unknown rather than guessed.
 *
 * DetectorContext holds everything a pipeline needs that is derived
 * from the program and its address space — the parsed /proc maps, the
 * load/store sets, the timing model. It is immutable after construction
 * and safe to share across concurrent shard pipelines, so a parallel
 * replay parses the maps and decodes the program exactly once.
 *
 * DetectorContext also resolves, once per program, everything stages
 * 1, 3 and 4 need to know about an instruction — its PC class and its
 * load/store facts — into one table indexed by instruction, so the
 * per-record path reads one entry instead of searching the maps. Stage
 * 2 likewise tests a data address against the few address ranges the
 * maps call stack, precomputed once, instead of searching the maps.
 *
 * DetectorPipeline implements analysis::RecordSink: the live
 * ExperimentRunner path and trace::TraceReplayer both drive it through
 * the same interface. One private step over (pc, data address, cycle)
 * is the whole digest: onRecord() runs it for one record (the live
 * path), and onColumns() runs it over a run of decoded trace columns
 * (trace::TraceFile cursors), so both paths digest identically and no
 * PebsRecord is built per stored record. In Streaming mode it runs the
 * Section 4.4 rate check online (the live behaviour); in Shard mode it
 * collects RateEvents instead, deferring repair semantics to the
 * merge-time sequential scan.
 */

#ifndef LASER_DETECT_PIPELINE_H
#define LASER_DETECT_PIPELINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/sink.h"
#include "detect/cacheline_model.h"
#include "detect/detector_state.h"
#include "detect/maps_filter.h"
#include "detect/types.h"
#include "isa/decode.h"
#include "isa/program.h"
#include "mem/address_space.h"
#include "sim/timing.h"

namespace laser::detect {

/** Shared, immutable per-program replay environment. */
struct DetectorContext
{
    /** What the pipeline needs to know about one instruction. */
    struct PcInfo
    {
        /** maps.classifyPc() of the instruction's PC. */
        PcClass pcClass = PcClass::Other;
        /** sets.lookup() of the instruction. */
        isa::MemAccessInfo access;
    };

    const isa::Program &prog;
    const mem::AddressSpace &space;
    MapsFilter maps;
    isa::LoadStoreSets sets;
    sim::TimingModel timing;
    /**
     * Cache line size the detector classifies against; must equal the
     * simulated machine's CacheGeometry::lineBytes or every line index
     * and byte footprint would silently disagree with the coherence
     * events being classified (invalid values fall back to the default).
     */
    int lineBytes;
    /** log2(lineBytes): a data address's line is addr >> lineShift. */
    int lineShift;
    /** One entry per index space.pcToIndex() can return. */
    std::vector<PcInfo> pcInfo;

    /** [begin, begin + bytes): addresses stage 2 drops as stack. */
    struct StackRange
    {
        std::uint64_t begin = 0;
        std::uint64_t bytes = 0;
    };
    /**
     * Disjoint, non-empty ranges whose union is exactly the addresses
     * maps.classifyData() calls DataClass::Stack. Entry i of the
     * start-sorted maps decides [start_i, start_{i+1}), so a stack
     * entry contributes [start_i, min(end_i, start_{i+1},
     * kKernelAddrBase)), when that is not empty.
     */
    std::vector<StackRange> stackRanges;

    /** maps.classifyData(addr) == DataClass::Stack, without a search
     *  and without a branch per range. */
    bool
    isStack(std::uint64_t addr) const
    {
        bool hit = false;
        for (const StackRange &r : stackRanges)
            hit |= addr - r.begin < r.bytes;
        return hit;
    }

    DetectorContext(const isa::Program &prog,
                    const mem::AddressSpace &space, std::string maps_text,
                    const sim::TimingModel &timing,
                    int line_bytes = CacheLineModel::kDefaultLineBytes);
};

/** One pass of stages 1-6 over (a shard of) a record stream. */
class DetectorPipeline final : public analysis::RecordSink
{
  public:
    enum class Mode : std::uint8_t {
        /** Online rate check per record; no RateEvents collected. */
        Streaming,
        /** Collect RateEvents; rate semantics applied at merge time. */
        Shard,
    };

    explicit DetectorPipeline(const DetectorContext &ctx,
                              DetectorConfig cfg = {},
                              Mode mode = Mode::Streaming);

    /** Push one record through stages 1-5 (and 6 when streaming). */
    void onRecord(const pebs::PebsRecord &rec) override;

    /** The same step as onRecord(), over each record of @p cols. */
    void onColumns(const analysis::RecordColumns &cols) override;

    /** True once the online rate check has requested repair. */
    bool repairRequested() const { return scan_.repairRequested; }

    const DetectorState &state() const { return state_; }

    DetectorState takeState() { return std::move(state_); }

    /** Shard mode: room for the rate events of @p records more records
     *  (a record adds at most one), so the digest never regrows them. */
    void
    reserveEvents(std::size_t records)
    {
        state_.rateEvents.reserve(state_.rateEvents.size() + records);
    }

    /** Streaming-mode finalize: build the report from the inline scan. */
    DetectionReport finish(std::uint64_t total_cycles) const;

    const DetectorContext &context() const { return ctx_; }
    const DetectorConfig &config() const { return cfg_; }

  private:
    /** Stages 1-5 (and 6 when streaming) for one record. */
    void step(std::uint64_t pc, std::uint64_t data_addr,
              std::uint64_t cycle);

    const DetectorContext &ctx_;
    DetectorConfig cfg_;
    Mode mode_;
    DetectorState state_;
    RateScanState scan_;
};

/**
 * The threshold-free half of report building: @p state's per-PC stats
 * summed per source line (loc, location, library flag, records, TS,
 * FS), in source-location order. hitmRate and type are left for the
 * per-configuration step, so one aggregation serves every threshold.
 */
std::vector<LineReport> aggregateLines(const DetectorContext &ctx,
                                       const DetectorState &state);

/**
 * Build the DetectionReport for @p cfg from a digested state, its
 * aggregateLines() result and a completed rate scan: per-line rate and
 * type, the threshold filter, the sort and the repair PCs. Pure:
 * serial and shard-merged paths call the same function, so their
 * reports can only differ if their states differ.
 */
DetectionReport buildReport(const DetectorContext &ctx,
                            const DetectorConfig &cfg,
                            const DetectorState &state,
                            const std::vector<LineReport> &lines,
                            const RateScanState &scan,
                            std::uint64_t total_cycles);

/** aggregateLines() then the per-configuration buildReport(). */
DetectionReport buildReport(const DetectorContext &ctx,
                            const DetectorConfig &cfg,
                            const DetectorState &state,
                            const RateScanState &scan,
                            std::uint64_t total_cycles);

} // namespace laser::detect

#endif // LASER_DETECT_PIPELINE_H
