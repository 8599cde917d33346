#include "pebs/monitor.h"

namespace laser::pebs {

PebsMonitor::PebsMonitor(const mem::AddressSpace &space,
                         std::size_t program_size,
                         const sim::TimingModel &timing, PebsConfig cfg)
    : space_(space),
      programSize_(program_size),
      timing_(timing),
      cfg_(cfg),
      rng_(cfg.seed)
{
    counters_.resize(space.numThreads(), 0);
    coreBuffers_.resize(space.numThreads());
    coreTruthBuffers_.resize(space.numThreads());
}

std::uint64_t
PebsMonitor::makeRecordedAddr(const sim::HitmEvent &event)
{
    const double p_correct =
        event.isLoadUop ? cfg_.loadAddrCorrect : cfg_.storeAddrCorrect;
    if (rng_.chance(p_correct))
        return event.vaddr;

    // Wrong address: mostly unmapped space, remainder split between a
    // thread stack and the kernel (Section 3.1).
    if (rng_.chance(cfg_.wrongAddrUnmapped)) {
        // A hole between the heap and the stacks is always unmapped in
        // our layout.
        return 0x2000'0000ULL + rng_.below(0x4000'0000ULL);
    }
    if (rng_.chance(0.5)) {
        const int tid =
            static_cast<int>(rng_.below(space_.numThreads()));
        return space_.stackBase(tid) +
               rng_.below(mem::Layout::kStackSize);
    }
    return mem::Layout::kKernelBase + rng_.below(0x10'0000ULL);
}

std::uint64_t
PebsMonitor::makeRecordedPc(const sim::HitmEvent &event)
{
    const double p_exact =
        event.isLoadUop ? cfg_.loadPcExact : cfg_.storePcExact;
    const double p_adjacent =
        event.isLoadUop ? cfg_.loadPcAdjacent : cfg_.storePcAdjacent;

    const double roll = rng_.uniform();
    if (roll < p_exact)
        return space_.indexToPc(event.pcIndex);
    if (roll < p_exact + p_adjacent) {
        // Skid to an adjacent instruction: usually the next one (the
        // pre-Haswell "subsequent instruction" behaviour), sometimes the
        // previous.
        std::int64_t index = event.pcIndex;
        if (rng_.chance(0.75))
            index += 1;
        else
            index -= 1;
        if (index < 0)
            index = 0;
        if (index >= static_cast<std::int64_t>(programSize_))
            index = static_cast<std::int64_t>(programSize_) - 1;
        return space_.indexToPc(static_cast<std::uint32_t>(index));
    }
    if (rng_.chance(cfg_.wrongPcInBinary)) {
        // >99% of wrong PCs still land somewhere in the binary.
        return space_.indexToPc(
            static_cast<std::uint32_t>(rng_.below(programSize_)));
    }
    // Entirely outside any mapping; the detector's maps filter drops it.
    return 0x3000'0000ULL + rng_.below(0x1000'0000ULL);
}

std::uint64_t
PebsMonitor::onHitm(const sim::HitmEvent &event)
{
    ++stats_.hitmEvents;
    if (cfg_.sav == 0)
        return 0;
    if (++counters_[event.core] % cfg_.sav != 0)
        return 0;

    ++stats_.samples;
    PebsRecord rec;
    rec.pc = makeRecordedPc(event);
    rec.dataAddr = makeRecordedAddr(event);
    rec.core = event.core;
    rec.cycle = event.cycle;
    coreBuffers_[event.core].push_back(rec);
    if (cfg_.keepGroundTruth) {
        coreTruthBuffers_[event.core].push_back(
            {space_.indexToPc(event.pcIndex), event.vaddr,
             event.isLoadUop});
    }

    std::uint64_t cost = cfg_.chargeCosts ? timing_.pebsAssist : 0;
    if (coreBuffers_[event.core].size() >= cfg_.bufferCapacity) {
        drainCore(event.core, true);
        if (cfg_.chargeCosts) {
            cost += timing_.pmiCost +
                    std::uint64_t(cfg_.bufferCapacity) *
                        timing_.driverPerRecord;
        }
    }
    if (cfg_.chargeCosts)
        stats_.appCycles += cost;
    return cost;
}

void
PebsMonitor::drainCore(int core, bool charge_interrupt)
{
    auto &buf = coreBuffers_[core];
    if (buf.empty())
        return;
    if (charge_interrupt) {
        ++stats_.interrupts;
        stats_.driverCycles +=
            timing_.pmiCost +
            buf.size() * std::uint64_t(timing_.driverPerRecord);
    } else {
        stats_.driverCycles +=
            buf.size() * std::uint64_t(timing_.driverPerRecord);
    }
    records_.insert(records_.end(), buf.begin(), buf.end());
    buf.clear();
    if (cfg_.keepGroundTruth) {
        auto &tbuf = coreTruthBuffers_[core];
        truths_.insert(truths_.end(), tbuf.begin(), tbuf.end());
        tbuf.clear();
    }
}

void
PebsMonitor::finish()
{
    for (int core = 0; core < space_.numThreads(); ++core)
        drainCore(core, false);
}

} // namespace laser::pebs
