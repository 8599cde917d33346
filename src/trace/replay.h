/**
 * @file
 * Trace replay: re-run an analysis over a captured record stream at any
 * configuration, without re-simulating the machine.
 *
 * The replayer rebuilds the capture's program from the workload registry
 * (workload builders are deterministic for fixed BuildOptions) and its
 * address-space layout, then runs the scheme's analyzer over the record
 * stream: a fresh DetectorPipeline (an analysis::RecordSink) for the
 * LASER scheme, the VTune offline aggregation or the Sheriff
 * sync-stream decoder.
 * The rebuilt environment (program, address space, parsed maps,
 * load/store sets) is shared and immutable, so one replayer can serve
 * many configurations and many shard pipelines concurrently.
 *
 * The record stream is pull-based: a replayer wraps any RecordSource —
 * a materialized Trace (the classic ctor) or a seekable trace::TraceFile
 * that decodes one columnar block at a time — and detection replay
 * never materializes more than the source's cursor buffering. Only the
 * VTune/Sheriff baseline replays (different, much shorter stream
 * schemes) materialize the stream when file-backed.
 */

#ifndef LASER_TRACE_REPLAY_H
#define LASER_TRACE_REPLAY_H

#include <memory>
#include <string>

#include "analysis/sink.h"
#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "detect/detector.h"
#include "detect/pipeline.h"
#include "isa/program.h"
#include "mem/address_space.h"
#include "trace/source.h"
#include "trace/trace.h"

namespace laser::trace {

/** Offline Sheriff re-analysis of a captured sync stream. */
struct SheriffReplay
{
    baselines::SheriffReport report;
    /** Commit cycles the capture run charged (its own config). */
    std::uint64_t capturedChargedCycles = 0;
    /**
     * Modeled wall-clock runtime under the replayed config: the
     * captured runtime with capture-time commit costs (spread evenly
     * over the cores) swapped for replayed ones. An additive estimate —
     * cost charging perturbs interleaving in a full simulation — exact
     * when the replayed config equals the capture's.
     */
    std::uint64_t estimatedRuntimeCycles = 0;
};

/**
 * Rebuilt replay environment for one trace. The backing trace or
 * source must outlive the replayer (it is read on every replay() call).
 */
class TraceReplayer
{
  public:
    /**
     * Replay a materialized trace. Hand-built in-memory traces need not
     * be cycle-sorted; an unsorted stream is copied and sorted once
     * here (stored streams are canonical, so the copy never happens for
     * traces that came from files).
     */
    explicit TraceReplayer(const Trace &trace);

    /**
     * Replay an arbitrary record source (typically an open
     * trace::TraceFile) under @p meta. The source's stream must already
     * be canonical — every Ok-opened trace file's is.
     */
    TraceReplayer(const TraceMeta &meta, const RecordSource &source);

    /** False when the trace's workload is unknown to this build. */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /**
     * Stream every record through @p sink in canonical order. Throws
     * std::runtime_error if the source fails mid-stream (a corrupt
     * block discovered lazily by a file-backed source).
     */
    void drive(analysis::RecordSink &sink) const;

    /** Re-run the detector over the records at @p cfg. */
    detect::DetectionReport replay(const detect::DetectorConfig &cfg) const;

    /**
     * Replay at a given rate threshold with every other detector knob at
     * its default and the SAV taken from the capture configuration —
     * the offline-threshold-adjustment use case of Section 4.
     */
    detect::DetectionReport replayAtThreshold(double rate_threshold) const;

    /** Offline VTune aggregation over a captured "vtune" stream. */
    baselines::VTuneReport
    replayVTune(const baselines::VTuneConfig &cfg) const;
    /** ...at the capture-time VTune configuration. */
    baselines::VTuneReport replayVTune() const;

    /** Offline Sheriff re-analysis of a captured sheriff stream. */
    SheriffReplay replaySheriff(const baselines::SheriffConfig &cfg) const;
    /** ...at the capture-time Sheriff configuration. */
    SheriffReplay replaySheriff() const;

    /** Capture metadata (valid for both ctors). */
    const TraceMeta &meta() const { return *meta_; }
    /** The record stream being replayed. */
    const RecordSource &source() const { return *source_; }
    std::uint64_t recordCount() const { return source_->recordCount(); }

    const isa::Program &program() const { return program_; }
    const mem::AddressSpace &space() const { return *space_; }
    /** Shared immutable detector environment (maps, load/store sets). */
    const detect::DetectorContext &context() const { return *ctx_; }

  private:
    void buildEnvironment();
    /** The stream as a vector (copies when source-backed). */
    std::vector<pebs::PebsRecord> materializeRecords() const;
    SheriffReplay
    replaySheriffOver(const std::vector<pebs::PebsRecord> &records,
                      const baselines::SheriffConfig &cfg) const;

    const Trace *trace_ = nullptr;
    const TraceMeta *meta_ = nullptr;
    const RecordSource *source_ = nullptr;
    /** Sorted copy backing ownedSource_ for unsorted in-memory traces. */
    std::vector<pebs::PebsRecord> ownedSorted_;
    std::unique_ptr<MemoryRecordSource> ownedSource_;
    isa::Program program_;
    std::unique_ptr<mem::AddressSpace> space_;
    std::unique_ptr<detect::DetectorContext> ctx_;
    std::string error_;
};

} // namespace laser::trace

#endif // LASER_TRACE_REPLAY_H
