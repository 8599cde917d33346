#include "trace/replay.h"

#include <algorithm>
#include <stdexcept>

namespace laser::trace {

TraceReplayer::TraceReplayer(const TraceMeta &meta, const TraceFile &file)
    : meta_(&meta), file_(&file)
{
    const workloads::WorkloadDef *def =
        workloads::findWorkload(meta_->workload);
    if (!def) {
        error_ = "unknown workload \"" + meta_->workload + "\"";
        return;
    }
    workloads::WorkloadBuild build = def->build(meta_->build);
    program_ = std::move(build.program);
    space_ = std::make_unique<mem::AddressSpace>(program_,
                                                 meta_->machine.numCores);
    ctx_ = std::make_unique<detect::DetectorContext>(
        program_, *space_, meta_->mapsText, meta_->machine.timing,
        static_cast<int>(meta_->machine.geometry.lineBytes));
}

void
TraceReplayer::drive(analysis::RecordSink &sink) const
{
    const std::unique_ptr<RecordCursor> cur = file_->cursor();
    cur->drain(sink);
    if (cur->status() != TraceStatus::Ok)
        throw std::runtime_error(
            std::string("trace replay: record stream failed: ") +
            traceStatusName(cur->status()));
}

std::vector<pebs::PebsRecord>
TraceReplayer::materializeRecords() const
{
    std::vector<pebs::PebsRecord> records;
    records.reserve(static_cast<std::size_t>(file_->recordCount()));
    const std::unique_ptr<RecordCursor> cur = file_->cursor();
    pebs::PebsRecord rec;
    while (cur->next(&rec))
        records.push_back(rec);
    if (cur->status() != TraceStatus::Ok)
        throw std::runtime_error(
            std::string("trace replay: record stream failed: ") +
            traceStatusName(cur->status()));
    return records;
}

detect::DetectionReport
TraceReplayer::replay(const detect::DetectorConfig &cfg) const
{
    detect::DetectorPipeline pipeline(*ctx_, cfg);
    drive(pipeline);
    return pipeline.finish(meta_->runtimeCycles);
}

detect::DetectionReport
TraceReplayer::replayAtThreshold(double rate_threshold) const
{
    detect::DetectorConfig cfg;
    cfg.rateThreshold = rate_threshold;
    cfg.sav = meta_->pebs.sav;
    return replay(cfg);
}

baselines::VTuneReport
TraceReplayer::replayVTune(const baselines::VTuneConfig &cfg) const
{
    // The interrupt-per-event stream records every HITM (SAV 1), so the
    // stream length is the event count. The baseline aggregators take a
    // vector, so the stream materializes here (these streams are a
    // small fraction of a detection stream's length).
    const std::vector<pebs::PebsRecord> records = materializeRecords();
    return baselines::aggregateVTune(program_, *space_, records,
                                     records.size(), meta_->runtimeCycles,
                                     cfg);
}

baselines::VTuneReport
TraceReplayer::replayVTune() const
{
    return replayVTune(meta_->vtune);
}

SheriffReplay
TraceReplayer::replaySheriff(const baselines::SheriffConfig &cfg) const
{
    const std::vector<pebs::PebsRecord> records = materializeRecords();
    SheriffReplay out;
    out.report = baselines::replaySheriffStream(records, cfg);
    const baselines::SheriffConfig &cap = meta_->sheriff;
    const bool same_costs = cfg.syncBaseCost == cap.syncBaseCost &&
                            cfg.perDirtyPageCost == cap.perDirtyPageCost &&
                            cfg.detectExtraCost == cap.detectExtraCost &&
                            cfg.detectMode == cap.detectMode;
    out.capturedChargedCycles =
        same_costs
            ? out.report.chargedCycles
            : baselines::replaySheriffStream(records, cap).chargedCycles;
    // Commit costs are charged per core but the captured runtime is
    // wall-clock; assume the charge spreads evenly across cores, so the
    // wall-clock contribution is chargedCycles / numCores. Exact when
    // the replayed config equals the capture's (the deltas cancel).
    const int cores = std::max(1, meta_->machine.numCores);
    const std::uint64_t captured_wall = out.capturedChargedCycles / cores;
    const std::uint64_t replayed_wall = out.report.chargedCycles / cores;
    const std::uint64_t base = meta_->runtimeCycles > captured_wall
                                   ? meta_->runtimeCycles - captured_wall
                                   : 0;
    out.estimatedRuntimeCycles = base + replayed_wall;
    return out;
}

SheriffReplay
TraceReplayer::replaySheriff() const
{
    return replaySheriff(meta_->sheriff);
}

} // namespace laser::trace
