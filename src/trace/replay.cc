#include "trace/replay.h"

#include <stdexcept>

namespace laser::trace {

namespace {

/** Throw std::runtime_error unless a record stream ended Ok. */
void
checkStream(TraceStatus status)
{
    if (status != TraceStatus::Ok)
        throw std::runtime_error(
            std::string("trace replay: record stream failed: ") +
            traceStatusName(status));
}

} // namespace

TraceReplayer::TraceReplayer(const TraceMeta &meta, const TraceFile &file)
    : meta_(&meta), file_(&file)
{
    const workloads::WorkloadDef *def =
        workloads::findWorkload(meta_->workload);
    if (!def) {
        error_ = "unknown workload \"" + meta_->workload + "\"";
        return;
    }
    program_ = def->buildProgram(meta_->build);
    space_ = std::make_unique<mem::AddressSpace>(program_,
                                                 meta_->machine.numCores);
    ctx_ = std::make_unique<detect::DetectorContext>(
        program_, *space_, meta_->mapsText, meta_->machine.timing,
        static_cast<int>(meta_->machine.geometry.lineBytes));
}

detect::DetectionReport
TraceReplayer::replay(const detect::DetectorConfig &cfg) const
{
    detect::DetectorPipeline pipeline(*ctx_, cfg);
    const std::unique_ptr<RecordCursor> cur = file_->cursor();
    cur->drain(pipeline);
    checkStream(cur->status());
    return pipeline.finish(meta_->runtimeCycles);
}

baselines::VTuneReport
TraceReplayer::replayVTune(const baselines::VTuneConfig &cfg) const
{
    // The interrupt-per-event stream records every HITM (SAV 1), so the
    // stream length is the event count. The baseline aggregators take a
    // vector, so the stream materializes here (these streams are a
    // small fraction of a detection stream's length).
    Trace trace;
    checkStream(file_->readAll(&trace));
    return baselines::aggregateVTune(program_, *space_, trace.records,
                                     trace.records.size(),
                                     meta_->runtimeCycles, cfg);
}

baselines::VTuneReport
TraceReplayer::replayVTune() const
{
    return replayVTune(meta_->vtune);
}

baselines::SheriffReport
TraceReplayer::replaySheriff() const
{
    Trace trace;
    checkStream(file_->readAll(&trace));
    return baselines::replaySheriffStream(trace.records, meta_->sheriff);
}

} // namespace laser::trace
