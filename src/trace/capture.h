/**
 * @file
 * Trace capture: run one monitored simulation (the expensive part) and
 * package the analysis-record stream + run metadata as a Trace.
 *
 * Capture is scheme-aware: the same machinery records the LASER PEBS
 * stream ("laser-detect"), the VTune interrupt-per-event stream
 * ("vtune"), the Sheriff sync-commit stream ("sheriff-detect" /
 * "sheriff-protect") or an unmonitored native run ("native", empty
 * stream). Every captured stream is stored in canonical cycle order, so
 * any AnalysisSink — serial or sharded — can replay it without
 * re-simulating.
 *
 * This is the one monitored run in the system: core::ExperimentRunner
 * runs every scheme through runCapture() and analyzes the returned
 * stream, so a live report and an offline replay of the same capture
 * are the same function of the same records. The defaults are the
 * experiment harness's (SAV 19, the fork/attach heap shift, the default
 * machine seed for LASER; no heap shift for the baselines).
 */

#ifndef LASER_TRACE_CAPTURE_H
#define LASER_TRACE_CAPTURE_H

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "pebs/monitor.h"
#include "sim/machine.h"
#include "sim/protocol.h"
#include "sim/timing.h"
#include "trace/trace.h"
#include "workloads/workload.h"

namespace laser::trace {

/** Knobs of one capture run (everything else at system defaults). */
struct CaptureOptions
{
    /** Sample-after value; 0 captures an unmonitored (native) run. */
    std::uint32_t sav = 19;
    std::uint64_t machineSeed = 0x1a5e2;
    /** Heap shift of the LASER fork/attach; 0 for native baselines. */
    std::uint64_t heapShift = 48;
    int numThreads = 4;
    std::uint64_t inputSeed = 0x5eed;
    double scale = 1.0;
    bool manualFix = false;
    sim::TimingModel timing{};
    /** Coherence backend of the simulated machine. */
    sim::ProtocolKind protocol = sim::ProtocolKind::Mesi;
    /** Simulated cache geometry (line size). */
    sim::CacheGeometry geometry{};
    /** Scheme label; selects what the capture records (see file doc). */
    std::string scheme = "laser-detect";
    /** Baseline-model configurations (used by their schemes only). */
    baselines::VTuneConfig vtune{};
    baselines::SheriffConfig sheriff{};

    /**
     * Canonical options for a scheme: "laser-detect" keeps the
     * fork/attach heap shift; the baselines and native runs drop it;
     * the sheriff schemes set detect mode accordingly.
     */
    static CaptureOptions forScheme(const std::string &scheme);
};

/**
 * Build the capture configuration section of a TraceMeta without
 * running anything; configHash() of the result is the cache key.
 */
TraceMeta makeCaptureMeta(const workloads::WorkloadDef &workload,
                          const CaptureOptions &opt);

/** One monitored run: its trace and what the live analyses need. */
struct CaptureRun
{
    /** Run metadata plus the record stream in canonical cycle order. */
    Trace trace;
    /**
     * The machine that ran: its program and address space back the
     * live detector's context and the repairer.
     */
    std::unique_ptr<sim::Machine> machine;
    /** PEBS driver statistics of a "laser-detect" run (zero otherwise). */
    pebs::PebsStats pebs;
};

/** Run the simulation under @p opt's scheme. */
CaptureRun runCapture(const workloads::WorkloadDef &workload,
                      const CaptureOptions &opt = {});

/** runCapture(workload, opt).trace */
Trace captureTrace(const workloads::WorkloadDef &workload,
                   const CaptureOptions &opt = {});

} // namespace laser::trace

#endif // LASER_TRACE_CAPTURE_H
