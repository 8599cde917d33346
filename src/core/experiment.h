/**
 * @file
 * Experiment harness: runs a workload under one of the evaluated schemes
 * and produces runtime + detection results (the machinery behind every
 * table and figure of Section 7).
 *
 * Every scheme's monitored run is a trace::runCapture(); the scheme's
 * analyzer then reads the captured stream, exactly as an offline replay
 * of the same capture would.
 *
 * Schemes:
 *  - Native: no monitoring (the normalization baseline).
 *  - Laser: the full system (Figure 8). The detector process forks the
 *    application; the fork/attach shifts the initial heap break (the
 *    lu_ncb layout coincidence). PEBS monitoring runs with SAV=19; if
 *    the online rate check requests repair, the run is re-executed with
 *    the Pin-instrumented binary and the modeled runtime composes the
 *    pre-trigger monitored phase, the Pin attach cost and the repaired
 *    remainder.
 *  - LaserDetectOnly: monitoring without repair (overhead studies).
 *  - VTune: interrupt-per-event profiling baseline.
 *  - SheriffDetect / SheriffProtect: threads-as-processes baselines
 *    (subject to the Table 1 compatibility matrix).
 *  - ManualFix: the source-level fix guided by LASER's report.
 */

#ifndef LASER_CORE_EXPERIMENT_H
#define LASER_CORE_EXPERIMENT_H

#include <cstdint>
#include <optional>
#include <string>

#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "detect/detector.h"
#include "pebs/monitor.h"
#include "repair/repairer.h"
#include "sim/machine.h"
#include "trace/capture.h"
#include "workloads/workload.h"

namespace laser::core {

/** Evaluated system configuration. */
enum class Scheme : std::uint8_t {
    Native,
    Laser,
    LaserDetectOnly,
    VTune,
    SheriffDetect,
    SheriffProtect,
    ManualFix,
};

const char *schemeName(Scheme scheme);

/** Harness configuration. */
struct ExperimentConfig
{
    std::uint32_t sav = 19;
    detect::DetectorConfig detector{};
    repair::RepairConfig repair{};
    sim::TimingModel timing{};
    /** Coherence backend the simulated machine runs (protocol sweeps). */
    sim::ProtocolKind protocol = sim::ProtocolKind::Mesi;
    /** Simulated cache geometry; lineBytes also drives the detector. */
    sim::CacheGeometry geometry{};
    baselines::VTuneConfig vtune{};
    baselines::SheriffConfig sheriff{};
    int numThreads = 4;
    /** Heap shift introduced by the LASER fork/attach (Section 7.4.2). */
    std::uint64_t laserHeapShift = 48;
    /** Input scale used when Sheriff needs simlarge (Figure 14 "*"). */
    double sheriffSmallScale = 0.4;
    std::uint64_t inputSeed = 0x5eed;
    /** Machine timing-jitter seed (vary to average across "runs"). */
    std::uint64_t machineSeed = 0x1a5e2;
};

/** Result of one run. */
struct RunResult
{
    Scheme scheme = Scheme::Native;
    /** Modeled wall-clock runtime in cycles. */
    std::uint64_t runtimeCycles = 0;
    /** True when the scheme cannot run this workload (Sheriff). */
    bool crashed = false;
    /** Why it crashed ("x") or is incompatible ("i"). */
    std::string crashReason;

    sim::MachineStats stats;
    pebs::PebsStats pebs;
    detect::DetectionReport detection;       ///< Laser schemes
    baselines::VTuneReport vtune;            ///< VTune scheme
    baselines::SheriffReport sheriff;        ///< Sheriff schemes
    repair::RepairPlan plan;                 ///< Laser (repair attempt)
    bool repairApplied = false;
    /** Fraction of the run before the repair trigger fired. */
    double repairTriggerFraction = 1.0;

    double seconds() const { return sim::representedSeconds(runtimeCycles); }
};

/** Runs workloads under schemes. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig cfg = {});

    /**
     * Run @p workload under @p scheme. @p scale overrides the input
     * scale (1.0 = native inputs).
     */
    RunResult run(const workloads::WorkloadDef &workload, Scheme scheme,
                  double scale = 1.0);

    const ExperimentConfig &config() const { return cfg_; }

  private:
    /** The monitored run of @p scheme at @p scale under this config. */
    trace::CaptureOptions captureOptions(Scheme scheme, double scale) const;
    /** LASER's analysis of a capture: detection, then repair if asked. */
    void analyzeLaser(const workloads::WorkloadDef &w,
                      const trace::CaptureRun &run, RunResult *result) const;

    ExperimentConfig cfg_;
};

} // namespace laser::core

#endif // LASER_CORE_EXPERIMENT_H
