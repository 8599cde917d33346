#include "detect/detector.h"

namespace laser::detect {

const char *
contentionTypeName(ContentionType type)
{
    switch (type) {
      case ContentionType::Unknown:      return "unknown";
      case ContentionType::TrueSharing:  return "TS";
      case ContentionType::FalseSharing: return "FS";
    }
    return "???";
}

const LineReport *
DetectionReport::findLine(const std::string &location) const
{
    for (const LineReport &lr : lines) {
        if (lr.location == location)
            return &lr;
    }
    return nullptr;
}

bool
reportsIdentical(const DetectionReport &a, const DetectionReport &b)
{
    if (a.totalRecords != b.totalRecords ||
            a.droppedPcFilter != b.droppedPcFilter ||
            a.droppedStackData != b.droppedStackData ||
            a.seconds != b.seconds ||
            a.repairRequested != b.repairRequested ||
            a.repairTriggerCycle != b.repairTriggerCycle ||
            a.repairPcs != b.repairPcs ||
            a.detectorCycles != b.detectorCycles ||
            a.lines.size() != b.lines.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.lines.size(); ++i) {
        const LineReport &la = a.lines[i];
        const LineReport &lb = b.lines[i];
        if (la.loc != lb.loc || la.location != lb.location ||
                la.library != lb.library || la.records != lb.records ||
                la.hitmRate != lb.hitmRate ||
                la.tsEvents != lb.tsEvents ||
                la.fsEvents != lb.fsEvents || la.type != lb.type) {
            return false;
        }
    }
    return true;
}

Detector::Detector(const isa::Program &prog,
                   const mem::AddressSpace &space, std::string maps_text,
                   const sim::TimingModel &timing, DetectorConfig cfg,
                   int line_bytes)
    : ctx_(std::make_unique<DetectorContext>(prog, space,
                                             std::move(maps_text),
                                             timing, line_bytes)),
      pipeline_(*ctx_, cfg, DetectorPipeline::Mode::Streaming)
{
}

void
Detector::processAll(const std::vector<pebs::PebsRecord> &recs)
{
    // The driver drains whole per-core buffers at a time, so the raw
    // stream arrives in same-core bursts. Records carry timestamps;
    // processing them in time order restores the interleaving the
    // cache-line model needs to tell false from true sharing.
    std::vector<pebs::PebsRecord> ordered(recs);
    analysis::sortByCycle(&ordered);
    analysis::drain(ordered, pipeline_);
}

} // namespace laser::detect
