/**
 * @file
 * PEBS monitor: Haswell PMU sampling model + kernel driver model.
 *
 * This is the reproduction's substitute for real Haswell PEBS hardware.
 * It implements, per Section 3 and Section 6 of the paper:
 *
 *  - Sample-After-Value (SAV) sampling: every SAV-th HITM event produces
 *    a record; prime SAVs are recommended and 19 is the paper's default.
 *  - The record imprecision Figure 3 characterizes: load-triggered
 *    records are mostly precise (~75% correct data address, ~40% exact /
 *    +30% adjacent PC); store-triggered records are mostly garbage; 95%
 *    of wrong data addresses point at unmapped memory, the rest at the
 *    stack or kernel; >99% of wrong PCs still land inside the binary.
 *  - Per-core record buffers drained by an interrupt when full, with the
 *    PEBS microcode assist and PMI costs charged to the triggering core
 *    (this is where LASER's ~2% overhead comes from), and driver CPU
 *    time accounted separately for the Figure 12 breakdown.
 */

#ifndef LASER_PEBS_MONITOR_H
#define LASER_PEBS_MONITOR_H

#include <cstdint>
#include <vector>

#include "mem/address_space.h"
#include "pebs/record.h"
#include "sim/hitm.h"
#include "sim/timing.h"
#include "util/rng.h"

namespace laser::pebs {

/** Monitor configuration. */
struct PebsConfig
{
    /** Sample-after value; 0 disables monitoring entirely. */
    std::uint32_t sav = 19;
    /** Per-core record buffer capacity (records between interrupts). */
    std::uint32_t bufferCapacity = 64;
    std::uint64_t seed = 0x1a5e2'0001;
    /** Retain ground truth per record (Figure 3 harness / tests only). */
    bool keepGroundTruth = false;
    /** Charge assist/interrupt costs to the application (off = ideal). */
    bool chargeCosts = true;

    // Imprecision parameters, calibrated to Figure 3.
    double loadAddrCorrect = 0.75;
    double loadPcExact = 0.42;
    double loadPcAdjacent = 0.30;
    double storeAddrCorrect = 0.08;
    double storePcExact = 0.07;
    double storePcAdjacent = 0.27;
    double wrongAddrUnmapped = 0.95; ///< remainder split stack/kernel
    double wrongPcInBinary = 0.99;
};

/** Counters exposed by the monitor after a run. */
struct PebsStats
{
    std::uint64_t hitmEvents = 0;   ///< all HITM events seen
    std::uint64_t samples = 0;      ///< records generated (events / SAV)
    std::uint64_t interrupts = 0;   ///< buffer-full PMIs
    std::uint64_t appCycles = 0;    ///< cycles charged to the application
    std::uint64_t driverCycles = 0; ///< driver CPU (PMI handler + copies)
};

/**
 * The PMU + driver model. Install on a Machine via setPmuSink; read the
 * record stream afterwards.
 */
class PebsMonitor : public sim::PmuSink
{
  public:
    PebsMonitor(const mem::AddressSpace &space, std::size_t program_size,
                const sim::TimingModel &timing, PebsConfig cfg = {});

    std::uint64_t onHitm(const sim::HitmEvent &event) override;

    /** PEBS samples HITMs only. */
    bool observesMemops() const override { return false; }

    /** Drain residual per-core buffers (call after Machine::run). */
    void finish();

    /** Records in driver-delivery order. */
    const std::vector<PebsRecord> &records() const { return records_; }

    /** Ground truth parallel to records() (characterization mode). */
    const std::vector<RecordTruth> &truths() const { return truths_; }

    const PebsStats &stats() const { return stats_; }

    const PebsConfig &config() const { return cfg_; }

  private:
    std::uint64_t makeRecordedAddr(const sim::HitmEvent &event);
    std::uint64_t makeRecordedPc(const sim::HitmEvent &event);
    void drainCore(int core, bool charge_interrupt);

    const mem::AddressSpace &space_;
    std::size_t programSize_;
    sim::TimingModel timing_;
    PebsConfig cfg_;
    laser::Rng rng_;
    /** Per-core event counters: each core's PMU samples independently. */
    std::vector<std::uint64_t> counters_;
    std::vector<std::vector<PebsRecord>> coreBuffers_;
    std::vector<std::vector<RecordTruth>> coreTruthBuffers_;
    std::vector<PebsRecord> records_;
    std::vector<RecordTruth> truths_;
    PebsStats stats_;
};

} // namespace laser::pebs

#endif // LASER_PEBS_MONITOR_H
