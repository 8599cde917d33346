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
 * The record stream is pull-based: a replayer reads an open
 * trace::TraceFile, whose cursors decode one columnar block at a time,
 * so detection replay never holds more than one decoded block. Only
 * the VTune/Sheriff baseline replays (different, much shorter stream
 * schemes) materialize the stream, through TraceFile::readAll.
 */

#ifndef LASER_TRACE_REPLAY_H
#define LASER_TRACE_REPLAY_H

#include <memory>
#include <string>

#include "analysis/sink.h"
#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "detect/pipeline.h"
#include "isa/program.h"
#include "mem/address_space.h"
#include "trace/trace.h"
#include "trace/trace_file.h"

namespace laser::trace {

/**
 * Rebuilt replay environment for one trace. The backing file must
 * outlive the replayer (it is read on every replay() call).
 */
class TraceReplayer
{
  public:
    /**
     * Replay the records of the open @p file under @p meta (normally
     * file.meta()). Every Ok-opened file's stream is canonical.
     */
    TraceReplayer(const TraceMeta &meta, const TraceFile &file);

    /** False when the trace's workload is unknown to this build. */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /**
     * Stream every record through @p sink in canonical order. Throws
     * std::runtime_error if the file fails mid-stream (a corrupt block
     * discovered lazily by its cursor).
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

    /**
     * Offline Sheriff re-analysis of a captured sheriff stream at the
     * capture-time Sheriff configuration (the modeled runtime is the
     * capture's meta().runtimeCycles).
     */
    baselines::SheriffReport replaySheriff() const;

    /** Capture metadata. */
    const TraceMeta &meta() const { return *meta_; }
    /** The trace file being replayed. */
    const TraceFile &file() const { return *file_; }
    std::uint64_t recordCount() const { return file_->recordCount(); }

    const isa::Program &program() const { return program_; }
    const mem::AddressSpace &space() const { return *space_; }
    /** Shared immutable detector environment (maps, load/store sets). */
    const detect::DetectorContext &context() const { return *ctx_; }

  private:
    const TraceMeta *meta_ = nullptr;
    const TraceFile *file_ = nullptr;
    isa::Program program_;
    std::unique_ptr<mem::AddressSpace> space_;
    std::unique_ptr<detect::DetectorContext> ctx_;
    std::string error_;
};

} // namespace laser::trace

#endif // LASER_TRACE_REPLAY_H
