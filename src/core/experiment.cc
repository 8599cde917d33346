#include "core/experiment.h"

#include <algorithm>

#include "detect/pipeline.h"

namespace laser::core {

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Native:          return "native";
      case Scheme::Laser:           return "laser";
      case Scheme::LaserDetectOnly: return "laser-detect";
      case Scheme::VTune:           return "vtune";
      case Scheme::SheriffDetect:   return "sheriff-detect";
      case Scheme::SheriffProtect:  return "sheriff-protect";
      case Scheme::ManualFix:       return "manual-fix";
    }
    return "???";
}

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg) : cfg_(cfg)
{
    cfg_.detector.sav = cfg_.sav;
}

trace::CaptureOptions
ExperimentRunner::captureOptions(Scheme scheme, double scale) const
{
    const bool laser =
        scheme == Scheme::Laser || scheme == Scheme::LaserDetectOnly;
    const bool native =
        scheme == Scheme::Native || scheme == Scheme::ManualFix;
    trace::CaptureOptions opt = trace::CaptureOptions::forScheme(
        laser ? "laser-detect" : native ? "native" : schemeName(scheme));
    if (laser) {
        opt.sav = cfg_.sav;
        // The detector forks the application, which shifts the heap
        // layout (Section 7.4.2).
        opt.heapShift = cfg_.laserHeapShift;
    }
    opt.machineSeed = cfg_.machineSeed;
    opt.numThreads = cfg_.numThreads;
    opt.inputSeed = cfg_.inputSeed;
    opt.scale = scale;
    opt.manualFix = scheme == Scheme::ManualFix;
    opt.timing = cfg_.timing;
    opt.protocol = cfg_.protocol;
    opt.geometry = cfg_.geometry;
    opt.vtune = cfg_.vtune;
    // makeCaptureMeta sets detectMode from the scheme.
    opt.sheriff = cfg_.sheriff;
    return opt;
}

RunResult
ExperimentRunner::run(const workloads::WorkloadDef &workload,
                      Scheme scheme, double scale)
{
    RunResult result;
    result.scheme = scheme;

    const bool sheriff =
        scheme == Scheme::SheriffDetect || scheme == Scheme::SheriffProtect;
    if (sheriff) {
        switch (workload.info.sheriff) {
          case workloads::SheriffCompat::Crash:
            result.crashed = true;
            result.crashReason = "runtime error";
            return result;
          case workloads::SheriffCompat::Incompatible:
            result.crashed = true;
            result.crashReason = "unsupported pthreads/OpenMP constructs";
            return result;
          case workloads::SheriffCompat::WorksSmallInput:
            scale *= cfg_.sheriffSmallScale;
            break;
          case workloads::SheriffCompat::Works:
            break;
        }
    }

    const trace::CaptureRun run =
        trace::runCapture(workload, captureOptions(scheme, scale));
    const trace::Trace &trace = run.trace;
    result.stats = trace.meta.stats;
    result.runtimeCycles = trace.meta.runtimeCycles;

    switch (scheme) {
      case Scheme::Native:
      case Scheme::ManualFix:
        break;
      case Scheme::Laser:
      case Scheme::LaserDetectOnly:
        analyzeLaser(workload, run, &result);
        break;
      case Scheme::VTune:
        // Interrupt-per-event collection records every HITM (SAV 1).
        result.vtune = baselines::aggregateVTune(
            run.machine->program(), run.machine->addressSpace(),
            trace.records, trace.records.size(), trace.meta.runtimeCycles,
            trace.meta.vtune);
        break;
      case Scheme::SheriffDetect:
      case Scheme::SheriffProtect:
        result.sheriff =
            baselines::replaySheriffStream(trace.records, trace.meta.sheriff);
        // Sheriff-Detect's object-granularity findings are encoded from
        // Table 1/2 (see DESIGN.md): when it catches a bug it reports
        // the object's allocation site, not the contending code.
        if (scheme == Scheme::SheriffDetect &&
            workload.info.sheriffDetectsBug)
            result.sheriff.reportedSites.push_back(
                workload.info.sheriffReportLocation);
        break;
    }
    return result;
}

void
ExperimentRunner::analyzeLaser(const workloads::WorkloadDef &w,
                               const trace::CaptureRun &run,
                               RunResult *result) const
{
    const trace::TraceMeta &meta = run.trace.meta;
    const sim::Machine &machine = *run.machine;
    result->pebs = run.pebs;

    // LASERDETECT consumes the captured stream through the
    // scheme-agnostic sink interface — the pipeline a replay drives.
    detect::DetectorContext ctx(machine.program(), machine.addressSpace(),
                                meta.mapsText, cfg_.timing,
                                static_cast<int>(cfg_.geometry.lineBytes));
    detect::DetectorPipeline pipeline(ctx, cfg_.detector);
    analysis::drain(run.trace.records, pipeline);
    result->detection = pipeline.finish(meta.stats.cycles);

    if (result->scheme != Scheme::Laser ||
        !result->detection.repairRequested)
        return;

    // Phase 2: repair attempt. LASERREPAIR analyzes the binary at the
    // contending PCs; if the plan is profitable, the remainder of the
    // execution runs Pin-instrumented.
    repair::Repairer repairer(machine.program(), cfg_.repair);
    result->plan = repairer.analyze(result->detection.repairPcs);
    if (!result->plan.applied)
        return;

    isa::Program instrumented = repairer.instrument(result->plan);
    sim::MachineConfig rmc = meta.machine;
    rmc.timing.base += cfg_.timing.pinBaseOverhead;
    workloads::WorkloadBuild rebuild = w.build(meta.build);
    sim::Machine repaired(std::move(instrumented), rmc);
    rebuild.applyTo(repaired);
    pebs::PebsMonitor rmonitor(repaired.addressSpace(),
                               repaired.program().size(), cfg_.timing,
                               meta.pebs);
    repaired.setPmuSink(&rmonitor);
    const sim::MachineStats rstats = repaired.run();
    rmonitor.finish();

    result->repairApplied = true;
    const std::uint64_t cycles = meta.stats.cycles;
    const double f =
        cycles == 0
            ? 1.0
            : std::min(1.0, double(result->detection.repairTriggerCycle) /
                                double(cycles));
    result->repairTriggerFraction = f;
    result->runtimeCycles = static_cast<std::uint64_t>(
        f * double(cycles) + double(cfg_.timing.pinAttachCost) +
        (1.0 - f) * double(rstats.cycles));
}

} // namespace laser::core
