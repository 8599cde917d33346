#include "trace/capture.h"

#include <stdexcept>

#include "analysis/sink.h"
#include "baselines/sheriff.h"
#include "baselines/vtune.h"

namespace laser::trace {

namespace {

bool
isSheriffScheme(const std::string &scheme)
{
    return scheme == "sheriff-detect" || scheme == "sheriff-protect";
}

} // namespace

CaptureOptions
CaptureOptions::forScheme(const std::string &scheme)
{
    CaptureOptions opt;
    opt.scheme = scheme;
    if (scheme == "laser-detect")
        return opt;
    // Only LASER forks/attaches (Section 7.4.2): the baselines and the
    // native reference run the unshifted heap layout.
    opt.heapShift = 0;
    if (scheme == "native")
        opt.sav = 0;
    if (isSheriffScheme(scheme))
        opt.sheriff.detectMode = scheme == "sheriff-detect";
    return opt;
}

TraceMeta
makeCaptureMeta(const workloads::WorkloadDef &workload,
                const CaptureOptions &opt)
{
    TraceMeta meta;
    meta.workload = workload.info.name;
    meta.scheme = opt.scheme;

    meta.build.manualFix = opt.manualFix;
    meta.build.heapPerturbation = opt.heapShift;
    meta.build.numThreads = opt.numThreads;
    meta.build.inputSeed = opt.inputSeed;
    meta.build.scale = opt.scale;

    meta.machine.numCores = opt.numThreads;
    meta.machine.timing = opt.timing;
    meta.machine.protocol = opt.protocol;
    meta.machine.geometry = opt.geometry;
    meta.machine.seed = opt.machineSeed;
    meta.machine.heapPerturbation = opt.heapShift;
    if (isSheriffScheme(opt.scheme)) {
        // Sheriff executes threads as processes and commits dirty pages
        // at sync points (Liu & Berger, OOPSLA'11).
        meta.machine.threadsAsProcesses = true;
        meta.machine.trackDirtyPages = true;
    }

    meta.pebs.sav = opt.scheme == "laser-detect" ? opt.sav : 0;
    meta.vtune = opt.vtune;
    meta.sheriff = opt.sheriff;
    // The scheme is authoritative for detect mode; keep the stored
    // config consistent so offline cost re-estimates use what ran.
    if (isSheriffScheme(opt.scheme))
        meta.sheriff.detectMode = opt.scheme == "sheriff-detect";
    return meta;
}

CaptureRun
runCapture(const workloads::WorkloadDef &workload, const CaptureOptions &opt)
{
    CaptureRun run;
    Trace &trace = run.trace;
    trace.meta = makeCaptureMeta(workload, opt);

    workloads::WorkloadBuild build = workload.build(trace.meta.build);
    run.machine = std::make_unique<sim::Machine>(std::move(build.program),
                                                 trace.meta.machine);
    sim::Machine &machine = *run.machine;
    build.applyTo(machine);

    const std::string &scheme = opt.scheme;
    if (scheme == "laser-detect") {
        pebs::PebsMonitor monitor(machine.addressSpace(),
                                  machine.program().size(), opt.timing,
                                  trace.meta.pebs);
        machine.setPmuSink(&monitor);
        trace.meta.stats = machine.run();
        monitor.finish();
        trace.records = monitor.records();
        run.pebs = monitor.stats();
    } else if (scheme == "vtune") {
        baselines::VTuneModel vtune(machine.program(),
                                    machine.addressSpace(), opt.timing,
                                    opt.vtune);
        machine.setPmuSink(&vtune);
        trace.meta.stats = machine.run();
        vtune.finish();
        trace.records = vtune.records();
    } else if (isSheriffScheme(scheme)) {
        baselines::SheriffModel sheriff(trace.meta.sheriff);
        machine.setPmuSink(&sheriff);
        trace.meta.stats = machine.run();
        trace.records = sheriff.records();
    } else if (scheme == "native") {
        trace.meta.stats = machine.run();
    } else {
        throw std::invalid_argument("runCapture: unknown scheme \"" +
                                    scheme + "\"");
    }
    // The sinks above die here; the returned machine must not call them.
    machine.setPmuSink(nullptr);

    trace.meta.runtimeCycles = trace.meta.stats.cycles;
    trace.meta.mapsText = machine.addressSpace().renderProcMaps();
    // Canonical stream order: per-core buffers arrive in same-core
    // bursts; the stable cycle sort recovers the interleaving the
    // analyzers need, so the stored stream replays without re-sorting.
    analysis::sortByCycle(&trace.records);
    return run;
}

Trace
captureTrace(const workloads::WorkloadDef &workload,
             const CaptureOptions &opt)
{
    return runCapture(workload, opt).trace;
}

} // namespace laser::trace
