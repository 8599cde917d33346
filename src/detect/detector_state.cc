#include "detect/detector_state.h"

#include <algorithm>

#include "sim/timing.h"

namespace laser::detect {

void
DetectorState::mergeFrom(DetectorState &&next)
{
    const std::uint64_t offset = rateEvents.size();

    // Boundary reconciliation: the serial pass would have classified the
    // first access to each line in `next` against this state's last
    // access to that line. Patch `next`'s own counters and events first
    // so the wholesale fold below stays simple. The lines are visited in
    // table slot order, which no output can see: each fix-up touches
    // only its own line's entry and rate event plus commutative counts.
    next.lines.forEach([&](std::uint64_t lineAddr, LineState &ls) {
        auto [acc, inserted] = lines.tryEmplace(lineAddr);
        if (inserted) {
            *acc = ls;
            acc->firstEvent += offset;
            return;
        }
        const SharingOutcome outcome = CacheLineModel::classify(
            acc->lastMask, acc->lastWrite, ls.firstMask, ls.firstWrite);
        if (outcome != SharingOutcome::None) {
            next.rateEvents[ls.firstEvent].outcome = outcome;
            PcStats &ps = next.pcStats[ls.firstPc];
            if (outcome == SharingOutcome::TrueSharing) {
                ++ps.ts;
                ++next.tsEvents;
            } else {
                ++ps.fs;
                ++next.fsEvents;
            }
        }
        acc->lastMask = ls.lastMask;
        acc->lastWrite = ls.lastWrite;
    });

    if (pcStats.size() < next.pcStats.size())
        pcStats.resize(next.pcStats.size());
    for (std::size_t pc = 0; pc < next.pcStats.size(); ++pc) {
        const PcStats &ps = next.pcStats[pc];
        PcStats &dst = pcStats[pc];
        dst.records += ps.records;
        dst.ts += ps.ts;
        dst.fs += ps.fs;
    }
    totalRecords += next.totalRecords;
    droppedPc += next.droppedPc;
    droppedStack += next.droppedStack;
    tsEvents += next.tsEvents;
    fsEvents += next.fsEvents;
    rateEvents.insert(rateEvents.end(), next.rateEvents.begin(),
                      next.rateEvents.end());
}

namespace {

/**
 * Close one rate-check window spanning @p span cycles: record its epoch
 * sample and decide whether its rates trigger repair. The one copy of
 * the Section 4.4 decision, shared by the streaming step and the
 * offline window scan.
 */
bool
closeWindow(std::uint64_t span, std::uint64_t records, std::uint64_t ts,
            std::uint64_t fs, const DetectorConfig &cfg)
{
    bool trigger = false;
    const double secs = sim::representedSeconds(span);
    if (secs > 0.0) {
        const double fs_rate = double(fs) * cfg.sav / secs;
        const double hitm_rate = double(records) * cfg.sav / secs;
        const bool classified_fs =
            fs_rate >= cfg.repairFsRateThreshold && fs >= ts;
        // Fallback for write-write contention whose record addresses are
        // too noisy to classify (Section 7.4.1, linear_regression): the
        // sheer HITM rate warrants a repair attempt only when almost
        // nothing classified (so the evidence cannot point to true
        // sharing).
        const bool unclassifiable = (ts + fs) * 12 < records;
        const bool unclassified_storm =
            hitm_rate >= cfg.repairHitmRateThreshold && unclassifiable &&
            ts <= std::max<std::uint64_t>(8, 4 * fs);
        trigger = classified_fs || unclassified_storm;
    }
    return trigger;
}

} // namespace

void
RateScanState::step(std::uint64_t cycle, SharingOutcome outcome,
                    const DetectorConfig &cfg)
{
    ++windowRecords;
    if (outcome == SharingOutcome::TrueSharing)
        ++windowTs;
    else if (outcome == SharingOutcome::FalseSharing)
        ++windowFs;

    if (repairRequested || cycle < windowStart + cfg.rateCheckInterval)
        return;

    if (closeWindow(cycle - windowStart, windowRecords, windowTs,
                    windowFs, cfg)) {
        repairRequested = true;
        repairTriggerCycle = cycle;
    }
    windowStart = cycle;
    windowRecords = 0;
    windowFs = 0;
    windowTs = 0;
}

RateWindows
summarizeRateEvents(const std::vector<RateEvent> &events,
                    std::uint64_t interval)
{
    RateWindows out;
    out.interval = interval;
    std::uint64_t start = 0;
    std::uint64_t ts = 0;
    std::uint64_t fs = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const RateEvent &ev = events[i];
        // Branch-free counting: outcomes follow no predictable pattern.
        ts += ev.outcome == SharingOutcome::TrueSharing;
        fs += ev.outcome == SharingOutcome::FalseSharing;
        // The same closing test as RateScanState::step.
        if (ev.cycle < start + interval)
            continue;
        out.windows.push_back({start, ev.cycle, i + 1, ts, fs});
        start = ev.cycle;
    }
    out.records = events.size();
    out.ts = ts;
    out.fs = fs;
    return out;
}

RateScanState
scanRateWindows(const RateWindows &windows, const DetectorConfig &cfg)
{
    // Counts are cumulative, so a window's own counts are the
    // difference from its predecessor; step() stops closing windows at
    // the trigger, so the scan stops there too and everything after it
    // is the open window.
    RateScanState scan;
    RateWindows::Window prev;
    for (const RateWindows::Window &w : windows.windows) {
        const bool trigger =
            closeWindow(w.close - w.start, w.records - prev.records,
                        w.ts - prev.ts, w.fs - prev.fs, cfg);
        prev = w;
        if (trigger) {
            scan.repairRequested = true;
            scan.repairTriggerCycle = w.close;
            break;
        }
    }
    scan.windowStart = prev.close;
    scan.windowRecords = windows.records - prev.records;
    scan.windowTs = windows.ts - prev.ts;
    scan.windowFs = windows.fs - prev.fs;
    return scan;
}

RateScanState
scanRateEvents(const std::vector<RateEvent> &events,
               const DetectorConfig &cfg)
{
    return scanRateWindows(
        summarizeRateEvents(events, cfg.rateCheckInterval), cfg);
}

} // namespace laser::detect
