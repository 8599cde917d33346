/**
 * @file
 * Trace replay environment: the program, address space and detector
 * context a captured record stream is analysed in, rebuilt without
 * re-simulating the machine.
 *
 * The replayer rebuilds the capture's program from the workload registry
 * (workload builders are deterministic for fixed BuildOptions) and its
 * address-space layout. It asks for the program alone
 * (WorkloadDef::buildProgram): a replay never runs the program, so the
 * initial memory image, histogram's 416k input pixels at scale 4, is
 * not synthesized. The rebuilt environment (program, address space,
 * parsed maps, load/store sets) is shared and immutable, so one
 * replayer can serve many configurations and many shard pipelines
 * concurrently.
 *
 * A LASER replay of the stored stream is a trace::ParallelReplayer
 * digest over this environment (parallel_replay.h): digest once, then
 * one report per configuration. The replayer itself runs only the
 * VTune and Sheriff baselines, whose streams are different, much
 * shorter schemes that materialize through TraceFile::readAll.
 */

#ifndef LASER_TRACE_REPLAY_H
#define LASER_TRACE_REPLAY_H

#include <memory>
#include <string>

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
 * outlive the replayer (every replay reads it).
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
     * One serial Streaming-mode detector pass over the whole stream at
     * @p cfg. No tool, bench harness or library path calls it: it is
     * the independent reference bench/pipeline's sweep verification
     * compares ParallelReplayer against, and goes with that benchmark's
     * rewrite (ROADMAP item 5). Throws std::runtime_error if the file
     * fails mid-stream.
     */
    detect::DetectionReport replay(const detect::DetectorConfig &cfg) const;

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
