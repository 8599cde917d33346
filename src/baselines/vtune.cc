#include "baselines/vtune.h"

#include <algorithm>
#include <map>

namespace laser::baselines {

namespace {

pebs::PebsConfig
samplerConfig(const VTuneConfig &cfg)
{
    pebs::PebsConfig pc;
    pc.sav = 1;             // interrupt after every event
    pc.chargeCosts = false; // VTune's costs are charged by this model
    pc.seed = cfg.seed;
    return pc;
}

} // namespace

VTuneModel::VTuneModel(const isa::Program &prog,
                       const mem::AddressSpace &space,
                       const sim::TimingModel &timing, VTuneConfig cfg)
    : cfg_(cfg),
      sampler_(space, prog.size(), timing, samplerConfig(cfg)),
      lastLoadCycle_(space.numThreads(), 0),
      hotLoads_(space.numThreads(), 0),
      memops_(space.numThreads(), 0)
{
}

std::uint64_t
VTuneModel::onHitm(const sim::HitmEvent &event)
{
    sampler_.onHitm(event);
    return cfg_.eventCost;
}

std::uint64_t
VTuneModel::onMemop(int core, std::uint32_t pc_index, bool is_write,
                    std::uint64_t cycle)
{
    (void)pc_index;
    std::uint64_t cost = 0;
    // General memory-access sampling: uniform overhead proportional to
    // memory-op density.
    if (++memops_[core] % cfg_.memopSav == 0)
        cost += cfg_.memopCost;
    if (is_write)
        return cost;
    const std::uint64_t last = lastLoadCycle_[core];
    lastLoadCycle_[core] = cycle;
    if (cycle - last > cfg_.hotLoadWindow)
        return cost;
    // Back-to-back loads saturate the PEBS buffers; every Nth pays a
    // full interrupt (string_match's Figure 10 behaviour).
    if (++hotLoads_[core] % cfg_.hotLoadSav == 0)
        cost += cfg_.hotLoadCost;
    return cost;
}

VTuneReport
aggregateVTune(const isa::Program &prog, const mem::AddressSpace &space,
               const std::vector<pebs::PebsRecord> &records,
               std::uint64_t hitm_events, std::uint64_t total_cycles,
               const VTuneConfig &cfg)
{
    VTuneReport report;
    report.hitmEvents = hitm_events;
    const double seconds = sim::representedSeconds(total_cycles);
    if (seconds <= 0.0)
        return report;

    // Raw aggregation: no filtering; unresolvable PCs are attributed to
    // the "nearest symbol" (deterministically pseudo-random line).
    std::map<isa::SourceLoc, std::uint64_t> by_line;
    for (const pebs::PebsRecord &rec : records) {
        std::int64_t index = space.pcToIndex(rec.pc);
        if (index < 0)
            index = static_cast<std::int64_t>(
                (rec.pc / isa::kInsnBytes) % prog.size());
        ++by_line[prog.locOf(static_cast<std::uint32_t>(index))];
    }
    for (const auto &[loc, count] : by_line) {
        const double rate = double(count) / seconds;
        if (rate >= cfg.rateThreshold) {
            report.lines.push_back(
                {prog.locString(loc), count, rate});
        }
    }
    std::sort(report.lines.begin(), report.lines.end(),
              [](const VTuneLine &a, const VTuneLine &b) {
                  if (a.hitmRate != b.hitmRate)
                      return a.hitmRate > b.hitmRate;
                  return a.location < b.location;
              });
    return report;
}

} // namespace laser::baselines
