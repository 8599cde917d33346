#include "items.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/sink.h"
#include "core/accuracy.h"
#include "core/experiment.h"
#include "core/sweep_runner.h"
#include "detect/detector_state.h"
#include "detect/pipeline.h"
#include "layers.h"
#include "pebs/monitor.h"
#include "repair/repairer.h"
#include "sim/machine.h"
#include "sim/protocol.h"
#include "trace/capture.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workloads/workload.h"

namespace laser::benchpipe {

namespace {

using Clock = std::chrono::steady_clock;
using workloads::WorkloadDef;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Process user+sys CPU seconds, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/**
 * Seed of replica @p replica under benchmark seed @p seed. Replica 0 of
 * seed 0 keeps @p base, the paper's configuration.
 */
std::uint64_t
derive(std::uint64_t base, std::uint64_t seed, int replica,
       std::uint64_t salt)
{
    if (seed == 0 && replica == 0)
        return base;
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL +
                          std::uint64_t(replica) * 0xd1b54a32d192ed03ULL +
                          salt;
    return splitMix64(state);
}

trace::CaptureOptions
captureOptions(std::uint64_t seed, int replica,
               trace::CaptureOptions opt = {})
{
    opt.inputSeed = derive(opt.inputSeed, seed, replica, 1);
    opt.machineSeed = derive(opt.machineSeed, seed, replica, 2);
    return opt;
}

core::ExperimentConfig
experimentConfig(std::uint64_t seed, int replica)
{
    core::ExperimentConfig cfg;
    cfg.inputSeed = derive(cfg.inputSeed, seed, replica, 1);
    cfg.machineSeed = derive(cfg.machineSeed, seed, replica, 2);
    return cfg;
}

std::vector<const WorkloadDef *>
corpus()
{
    std::vector<const WorkloadDef *> defs;
    for (const WorkloadDef &def : workloads::allWorkloads())
        defs.push_back(&def);
    return defs;
}

// ---------------------------------------------------------------------
// Output digests: identical for the plain and the split-up path.
// ---------------------------------------------------------------------

void
addStats(Fnv *h, const sim::MachineStats &s)
{
    for (std::uint64_t v :
         {s.cycles, s.instructions, s.loads, s.stores, s.atomics, s.l1Hits,
          s.llcHits, s.memMisses, s.upgrades, s.rfos, s.hitmLoads,
          s.hitmStores, s.syncOps, s.ssbStores, s.ssbLoadHits, s.ssbFlushes,
          s.ssbFlushedEntries, s.ssbMaxEntriesSeen, s.aliasChecks,
          s.aliasMisspecs, std::uint64_t(s.truncated)})
        h->add(v);
    for (std::uint64_t v : s.threadCycles)
        h->add(v);
    for (std::uint64_t v : s.threadInstructions)
        h->add(v);
}

std::uint64_t
captureDigest(const sim::MachineStats &stats,
              const std::vector<pebs::PebsRecord> &records)
{
    Fnv h;
    addStats(&h, stats);
    h.add(records.size());
    for (const pebs::PebsRecord &r : records) {
        h.add(r.pc);
        h.add(r.dataAddr);
        h.add(std::uint64_t(r.core));
        h.add(r.cycle);
    }
    return h.value();
}

void
addReport(Fnv *h, const detect::DetectionReport &report)
{
    h->add(report.totalRecords);
    h->add(report.lines.size());
    for (const detect::LineReport &line : report.lines)
        h->add(line.location);
    h->add(std::uint64_t(report.repairRequested));
    h->add(report.repairTriggerCycle);
}

std::uint64_t
rowsDigest(const std::vector<core::ThresholdSweepRow> &rows)
{
    Fnv h;
    for (const core::ThresholdSweepRow &row : rows) {
        h.add(std::uint64_t(row.threshold * 1000.0));
        h.add(std::uint64_t(row.falseNegatives));
        h.add(std::uint64_t(row.falsePositives));
    }
    return h.value();
}

/** One LASER run's observable outcome (RunResult or the split path). */
struct LaserOutcome
{
    sim::MachineStats stats;
    pebs::PebsStats pebs;
    detect::DetectionReport detection;
    bool repairApplied = false;
    std::uint64_t runtimeCycles = 0;
};

std::uint64_t
laserDigest(const LaserOutcome &o)
{
    Fnv h;
    addStats(&h, o.stats);
    for (std::uint64_t v : {o.pebs.hitmEvents, o.pebs.samples,
                            o.pebs.interrupts, o.pebs.appCycles,
                            o.pebs.driverCycles})
        h.add(v);
    addReport(&h, o.detection);
    h.add(std::uint64_t(o.repairApplied));
    h.add(o.runtimeCycles);
    return h.value();
}

// ---------------------------------------------------------------------
// Closed-loop pass driver
// ---------------------------------------------------------------------

/** A pass in progress: per-item digests and failures. */
struct PassState
{
    explicit PassState(std::size_t n)
        : digests(n, 0), failed(n, 0), errors(n)
    {
        result.attempted = n;
        result.itemMs.assign(n, 0.0);
    }

    void
    markFailed(std::size_t i, std::string why)
    {
        failed[i] = 1;
        if (errors[i].empty())
            errors[i] = std::move(why);
    }

    PassResult
    finish()
    {
        Fnv h;
        for (std::size_t i = 0; i < digests.size(); ++i) {
            h.add(failed[i] ? 0 : digests[i]);
            if (failed[i]) {
                ++result.failed;
                if (result.errors.size() < 5)
                    result.errors.push_back(errors[i]);
            }
        }
        result.digest = h.value();
        return std::move(result);
    }

    PassResult result;
    std::vector<std::uint64_t> digests;
    std::vector<std::uint8_t> failed;
    std::vector<std::string> errors;
};

/**
 * Run fn(i) for every item — on @p pool, or one after another on this
 * thread when @p pool is null — timing each item and the whole batch.
 * An item that throws is failed.
 */
void
timedItems(PassState *pass, util::ThreadPool *pool,
           const std::function<void(std::size_t)> &fn)
{
    const auto one = [&](std::size_t i) {
        const Clock::time_point start = Clock::now();
        try {
            fn(i);
        } catch (const std::exception &e) {
            pass->markFailed(i, e.what());
        }
        pass->result.itemMs[i] = 1e3 * secondsSince(start);
    };
    const std::size_t n = pass->digests.size();
    const double cpu_start = cpuSeconds();
    const Clock::time_point start = Clock::now();
    if (pool) {
        pool->parallelFor(n, one);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            one(i);
    }
    pass->result.wallSeconds = secondsSince(start);
    pass->result.cpuSeconds = cpuSeconds() - cpu_start;
}

// ---------------------------------------------------------------------
// Split-up paths (traced run): one LayerScope per public call
// ---------------------------------------------------------------------

/** Monitored Machine::run with the timed PEBS decorator; SimRun/Rerun. */
sim::MachineStats
monitoredRun(sim::Machine *machine, pebs::PebsMonitor *monitor, Layer layer)
{
    TimedPmuSink timed(*monitor);
    machine->setPmuSink(&timed);
    sim::MachineStats stats;
    {
        LayerScope run(layer);
        stats = machine->run();
        timed.settle(run);
        run.setUnits(stats.instructions);
    }
    machine->setPmuSink(nullptr);
    monitor->finish();
    return stats;
}

/**
 * trace::captureTrace plus the in-memory SweepRunner::captureFile
 * encode, call by call: build -> Machine -> PEBS -> run -> finish ->
 * sortByCycle -> TraceWriter -> TraceFile.
 */
std::uint64_t
splitCapture(const WorkloadDef &def, const trace::CaptureOptions &opt)
{
    trace::TraceMeta meta = trace::makeCaptureMeta(def, opt);
    std::optional<workloads::WorkloadBuild> build;
    {
        LayerScope scope(Layer::WorkloadsBuild);
        build.emplace(def.build(meta.build));
    }
    sim::Machine machine(std::move(build->program), meta.machine);
    build->applyTo(machine);
    pebs::PebsMonitor monitor(machine.addressSpace(),
                              machine.program().size(), opt.timing,
                              meta.pebs);
    meta.stats = monitoredRun(&machine, &monitor, Layer::SimRun);
    meta.runtimeCycles = meta.stats.cycles;
    meta.mapsText = machine.addressSpace().renderProcMaps();

    std::vector<pebs::PebsRecord> records = monitor.records();
    {
        LayerScope scope(Layer::AnalysisSort, records.size());
        analysis::sortByCycle(&records);
    }
    std::vector<std::uint8_t> image;
    {
        LayerScope scope(Layer::TraceEncode, records.size());
        trace::TraceWriter writer(meta);
        writer.appendAll(records);
        image = writer.finalize();
    }
    addCount(Count::TraceBytes, image.size());
    trace::TraceFile file;
    if (file.openBytes(std::move(image)) != trace::TraceStatus::Ok)
        throw std::runtime_error("encoded image does not open: " +
                                 file.error());

    addCount(Count::SimInstructions, meta.stats.instructions);
    addCount(Count::SimHitmEvents, meta.stats.hitmTotal());
    addCount(Count::SimLinesTouched, machine.protocol().linesTouched());
    addCount(Count::SimCycles, meta.stats.cycles);
    addCount(Count::PebsRecords, records.size());
    return captureDigest(meta.stats, records);
}

/** Collects a cursor's records (the decode layer's sink). */
class CollectSink final : public analysis::RecordSink
{
  public:
    void onRecord(const pebs::PebsRecord &rec) override
    {
        records.push_back(rec);
    }
    std::vector<pebs::PebsRecord> records;
};

/** Time-window shards of the split digest: two, so mergeFrom runs. */
constexpr std::uint64_t kSplitShards = 2;

/**
 * core::thresholdSweep over a warm cache, call by call: captureFile
 * (disk hit) -> TraceReplayer -> per shard cursor decode + Shard-mode
 * digest -> mergeFrom -> per threshold scanRateEvents + buildReport ->
 * evaluateAccuracy.
 */
std::vector<core::ThresholdSweepRow>
splitSweep(const std::vector<const WorkloadDef *> &defs,
           const std::vector<double> &thresholds,
           const trace::CaptureOptions &opt, const std::string &cache_dir)
{
    core::SweepRunner runner({poolWorkers(), cache_dir});
    const std::size_t nw = defs.size();
    const std::size_t nt = thresholds.size();

    std::vector<std::shared_ptr<const trace::TraceFile>> files(nw);
    std::vector<std::unique_ptr<trace::TraceReplayer>> envs(nw);
    {
        LASER_SPAN("core.sweep_capture");
        runner.parallelFor(nw, [&](std::size_t i) {
            {
                LayerScope scope(Layer::TraceOpen);
                files[i] = runner.captureFile(*defs[i], opt);
            }
            LayerScope scope(Layer::TraceReplayEnv);
            envs[i] = std::make_unique<trace::TraceReplayer>(
                files[i]->meta(), *files[i]);
            if (!envs[i]->ok())
                throw std::runtime_error(envs[i]->error());
        });
    }
    if (runner.stats().machineRuns != 0)
        throw std::runtime_error("warm sweep re-simulated");

    std::vector<detect::DetectorState> states(nw);
    {
        LASER_SPAN("core.sweep_digest");
        runner.parallelFor(nw, [&](std::size_t i) {
            LayerScope digest(Layer::DetectShardedDigest);
            const std::uint64_t n = files[i]->recordCount();
            std::vector<detect::DetectorState> shards(kSplitShards);
            for (std::uint64_t s = 0; s < kSplitShards; ++s) {
                CollectSink decoded;
                {
                    LayerScope scope(Layer::TraceDecode);
                    const std::unique_ptr<trace::RecordCursor> cur =
                        files[i]->cursorForRecords(
                            n * s / kSplitShards,
                            n * (s + 1) / kSplitShards);
                    cur->drain(decoded);
                    if (cur->status() != trace::TraceStatus::Ok)
                        throw std::runtime_error("corrupt cached trace");
                    scope.setUnits(decoded.records.size());
                }
                detect::DetectorPipeline pipeline(
                    envs[i]->context(), {},
                    detect::DetectorPipeline::Mode::Shard);
                {
                    LayerScope scope(Layer::DetectDigest,
                                     decoded.records.size());
                    analysis::drain(decoded.records, pipeline);
                }
                shards[s] = pipeline.takeState();
            }
            LayerScope merge(Layer::DetectMerge);
            for (std::uint64_t s = 1; s < kSplitShards; ++s)
                shards[0].mergeFrom(std::move(shards[s]));
            states[i] = std::move(shards[0]);
        });
    }
    for (const detect::DetectorState &state : states)
        addCount(Count::DetectRateEvents, state.rateEvents.size());

    std::vector<core::ThresholdSweepRow> cells(nw * nt);
    {
        LASER_SPAN("core.sweep_replay");
        runner.parallelFor(nw * nt, [&](std::size_t job) {
            const std::size_t wi = job / nt;
            const std::size_t ti = job % nt;
            detect::DetectorConfig cfg;
            cfg.rateThreshold = thresholds[ti];
            cfg.sav = opt.sav;
            detect::DetectionReport report;
            {
                LayerScope scope(Layer::DetectReport);
                detect::RateScanState scan;
                {
                    LayerScope inner(Layer::DetectRateScan,
                                     states[wi].rateEvents.size());
                    scan = detect::scanRateEvents(states[wi].rateEvents,
                                                  cfg);
                }
                report = detect::buildReport(envs[wi]->context(), cfg,
                                             states[wi], scan,
                                             envs[wi]->meta().runtimeCycles);
            }
            LayerScope scope(Layer::CoreAccuracy);
            const core::AccuracyResult acc = core::evaluateAccuracy(
                defs[wi]->info, core::reportLocations(report));
            cells[job].falseNegatives = acc.falseNegatives;
            cells[job].falsePositives = acc.falsePositives;
        });
    }
    std::vector<core::ThresholdSweepRow> rows(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
        rows[ti].threshold = thresholds[ti];
        for (std::size_t wi = 0; wi < nw; ++wi) {
            rows[ti].falseNegatives += cells[wi * nt + ti].falseNegatives;
            rows[ti].falsePositives += cells[wi * nt + ti].falsePositives;
        }
    }
    return rows;
}

/**
 * core::ExperimentRunner::run(Scheme::Laser) call by call: the
 * monitored run, the Streaming-mode detector, and — when it asks for
 * repair — Repairer::analyze/instrument and the instrumented re-run.
 */
LaserOutcome
splitLaser(const WorkloadDef &def, const core::ExperimentConfig &cfg)
{
    workloads::BuildOptions bo;
    bo.heapPerturbation = cfg.laserHeapShift;
    bo.numThreads = cfg.numThreads;
    bo.inputSeed = cfg.inputSeed;
    sim::MachineConfig mc;
    mc.numCores = cfg.numThreads;
    mc.timing = cfg.timing;
    mc.protocol = cfg.protocol;
    mc.geometry = cfg.geometry;
    mc.seed = cfg.machineSeed;
    pebs::PebsConfig pc;
    pc.sav = cfg.sav;

    std::optional<workloads::WorkloadBuild> build;
    {
        LayerScope scope(Layer::WorkloadsBuild);
        build.emplace(def.build(bo));
    }
    sim::Machine machine(std::move(build->program), mc);
    build->applyTo(machine);
    pebs::PebsMonitor monitor(machine.addressSpace(),
                              machine.program().size(), cfg.timing, pc);
    LaserOutcome out;
    out.stats = monitoredRun(&machine, &monitor, Layer::SimRun);
    out.pebs = monitor.stats();
    addCount(Count::SimLinesTouched, machine.protocol().linesTouched());

    detect::DetectorContext ctx(machine.program(), machine.addressSpace(),
                                machine.addressSpace().renderProcMaps(),
                                cfg.timing,
                                static_cast<int>(cfg.geometry.lineBytes));
    detect::DetectorConfig dcfg = cfg.detector;
    dcfg.sav = cfg.sav;
    detect::DetectorPipeline pipeline(ctx, dcfg);
    std::vector<pebs::PebsRecord> records = monitor.records();
    {
        LayerScope scope(Layer::AnalysisSort, records.size());
        analysis::sortByCycle(&records);
    }
    {
        LayerScope scope(Layer::DetectStream, records.size());
        analysis::drain(records, pipeline);
    }
    out.detection = pipeline.finish(out.stats.cycles);
    out.runtimeCycles = out.stats.cycles;
    std::uint64_t instructions = out.stats.instructions;
    std::uint64_t hitms = out.stats.hitmTotal();

    if (out.detection.repairRequested) {
        std::optional<repair::Repairer> repairer;
        repair::RepairPlan plan;
        {
            LayerScope scope(Layer::RepairAnalyze);
            repairer.emplace(machine.program(), cfg.repair);
            plan = repairer->analyze(out.detection.repairPcs);
        }
        if (plan.applied) {
            std::optional<isa::Program> instrumented;
            {
                LayerScope scope(Layer::RepairInstrument);
                instrumented.emplace(repairer->instrument(plan));
            }
            sim::MachineConfig rmc = mc;
            rmc.timing.base += cfg.timing.pinBaseOverhead;
            std::optional<workloads::WorkloadBuild> rebuild;
            {
                LayerScope scope(Layer::WorkloadsBuild);
                rebuild.emplace(def.build(bo));
            }
            sim::Machine repaired(std::move(*instrumented), rmc);
            rebuild->applyTo(repaired);
            pebs::PebsMonitor rmonitor(repaired.addressSpace(),
                                       repaired.program().size(),
                                       cfg.timing, pc);
            const sim::MachineStats rstats =
                monitoredRun(&repaired, &rmonitor, Layer::RepairRerun);
            out.repairApplied = true;
            const double f =
                out.stats.cycles == 0
                    ? 1.0
                    : std::min(1.0,
                               double(out.detection.repairTriggerCycle) /
                                   double(out.stats.cycles));
            out.runtimeCycles = static_cast<std::uint64_t>(
                f * double(out.stats.cycles) +
                double(cfg.timing.pinAttachCost) +
                (1.0 - f) * double(rstats.cycles));
            instructions += rstats.instructions;
            hitms += rstats.hitmTotal();
            addCount(Count::SimSsbFlushes, rstats.ssbFlushes);
        }
    }
    addCount(Count::SimInstructions, instructions);
    addCount(Count::SimHitmEvents, hitms);
    addCount(Count::SimCycles, out.runtimeCycles);
    addCount(Count::PebsRecords, records.size());
    addCount(Count::RepairApplied, out.repairApplied ? 1 : 0);
    const core::AccuracyResult acc = core::evaluateAccuracy(
        def.info, core::reportLocations(out.detection));
    addCount(Count::DetectFn, std::uint64_t(acc.falseNegatives));
    addCount(Count::DetectFp, std::uint64_t(acc.falsePositives));
    return out;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * capture / capture_dragon: cold monitored captures of the 35-program
 * corpus on an in-memory SweepRunner (a fresh one per pass, so nothing
 * is served from its cache).
 */
class CaptureWorkload final : public Workload
{
  public:
    CaptureWorkload(std::uint64_t seed, Size size,
                    sim::ProtocolKind protocol)
        : seed_(seed), size_(size), protocol_(protocol), defs_(corpus())
    {
    }

    void
    setup() override
    {
        // Warm-up: every program once per thread of the pool.
        core::SweepRunner runner({poolWorkers(), ""});
        const std::size_t n =
            defs_.size() * std::size_t(runner.workers() + 1);
        runner.parallelFor(n, [&](std::size_t i) {
            const auto [def, opt] = item(i % (defs_.size() * replicas()));
            (void)runner.captureFile(*def, opt);
        });
    }

    PassResult
    runPass(bool traced) override
    {
        core::SweepRunner runner({poolWorkers(), ""});
        PassState pass(defs_.size() * replicas());
        std::vector<std::shared_ptr<const trace::TraceFile>> files(
            pass.digests.size());
        timedItems(&pass, &runner.pool(), [&](std::size_t i) {
            const auto [def, opt] = item(i);
            if (traced)
                pass.digests[i] = splitCapture(*def, opt);
            else
                files[i] = runner.captureFile(*def, opt);
        });
        if (!traced) {
            runner.parallelFor(files.size(), [&](std::size_t i) {
                if (pass.failed[i])
                    return;
                const auto [def, opt] = item(i);
                try {
                    pass.digests[i] = checkImage(*files[i], *def, opt);
                } catch (const std::exception &e) {
                    pass.markFailed(i, e.what());
                }
            });
            replica0Hashes_.clear();
            for (std::size_t i = 0; i < defs_.size(); ++i)
                replica0Hashes_.push_back(
                    files[i] ? files[i]->storedConfigHash() : 0);
        }
        return pass.finish();
    }

    VerifyResult
    verify() override
    {
        // Seed 0 ties the numbers to the paper's configuration.
        VerifyResult v;
        if (seed_ != 0)
            return v;
        trace::CaptureOptions paper;
        paper.protocol = protocol_;
        for (std::size_t i = 0; i < defs_.size(); ++i) {
            ++v.checks;
            const std::uint64_t want =
                trace::configHash(trace::makeCaptureMeta(*defs_[i], paper));
            if (i >= replica0Hashes_.size() || replica0Hashes_[i] != want) {
                ++v.failed;
                v.errors.push_back(defs_[i]->info.name +
                                   ": replica 0 is not the paper's "
                                   "configuration");
            }
        }
        return v;
    }

  private:
    int replicas() const { return size_.replicas; }

    std::pair<const WorkloadDef *, trace::CaptureOptions>
    item(std::size_t i) const
    {
        trace::CaptureOptions opt;
        opt.protocol = protocol_;
        return {defs_[i % defs_.size()],
                captureOptions(seed_, int(i / defs_.size()), opt)};
    }

    /** Round-trip one image through TraceFile::readAll. */
    static std::uint64_t
    checkImage(const trace::TraceFile &file, const WorkloadDef &def,
               const trace::CaptureOptions &opt)
    {
        if (file.storedConfigHash() !=
                trace::configHash(trace::makeCaptureMeta(def, opt)))
            throw std::runtime_error(def.info.name + ": config hash");
        trace::Trace decoded;
        if (file.readAll(&decoded) != trace::TraceStatus::Ok)
            throw std::runtime_error(def.info.name + ": image does not "
                                                     "round-trip");
        if (decoded.records.size() != file.recordCount() ||
                decoded.meta.stats.truncated)
            throw std::runtime_error(def.info.name + ": bad image");
        return captureDigest(decoded.meta.stats, decoded.records);
    }

    std::uint64_t seed_;
    Size size_;
    sim::ProtocolKind protocol_;
    std::vector<const WorkloadDef *> defs_;
    std::vector<std::uint64_t> replica0Hashes_;
};

/** 32 log-spaced points over Figure 9's 32-64000 HITM/s, 1000 exact. */
std::vector<double>
sweepThresholds()
{
    std::vector<double> t;
    for (int i = 0; i < 14; ++i) // 32 .. 1000, ratio (1000/32)^(1/14)
        t.push_back(32.0 * std::pow(1000.0 / 32.0, i / 14.0));
    for (int i = 0; i <= 17; ++i) // 1000 .. 64000, ratio 64^(1/17)
        t.push_back(1000.0 * std::pow(64.0, i / 17.0));
    t.back() = 64000.0;
    return t;
}

constexpr std::size_t kThreshold1000 = 14;

/**
 * reanalyze: warm offline threshold sweeps over a disk trace cache the
 * setup captured at SAV 1 and scale 4 (about 445k records per corpus
 * sweep, so per-record costs dominate the fixed ones).
 */
class ReanalyzeWorkload final : public Workload
{
  public:
    ReanalyzeWorkload(std::uint64_t seed, Size size, std::string work_dir)
        : seed_(seed), size_(size), workDir_(std::move(work_dir)),
          defs_(corpus()), thresholds_(sweepThresholds()),
          reference_(std::size_t(size.replicas))
    {
    }

    ~ReanalyzeWorkload() override { removeCache(); }

    ReanalyzeWorkload(const ReanalyzeWorkload &) = delete;
    ReanalyzeWorkload &operator=(const ReanalyzeWorkload &) = delete;

    void
    setup() override
    {
        removeCache();
        cacheDir_ = workDir_ + "/reanalyze-" + std::to_string(getpid()) +
                    "-" + std::to_string(setups_++);
        core::SweepRunner runner({poolWorkers(), cacheDir_});
        const std::size_t n = defs_.size() * std::size_t(size_.replicas);
        runner.parallelFor(n, [&](std::size_t i) {
            (void)runner.captureFile(*defs_[i % defs_.size()],
                                     options(int(i / defs_.size())));
        });
        if (runner.stats().machineRuns != n)
            throw std::runtime_error("re-analysis cache setup hit a stale "
                                     "cache");
    }

    PassResult
    runPass(bool traced) override
    {
        const std::size_t replicas = std::size_t(size_.replicas);
        PassState pass(replicas * std::size_t(size_.rounds));
        std::vector<std::vector<core::ThresholdSweepRow>> rows(
            pass.digests.size());
        // Sweeps run one after another; each fans out on its own
        // runner's pool.
        timedItems(&pass, nullptr, [&](std::size_t i) {
            const trace::CaptureOptions opt = options(int(i % replicas));
            if (traced) {
                rows[i] = splitSweep(defs_, thresholds_, opt, cacheDir_);
                return;
            }
            core::SweepRunner runner({poolWorkers(), cacheDir_});
            const core::ThresholdSweepResult sweep =
                core::thresholdSweep(runner, defs_, thresholds_, opt);
            if (sweep.machineRuns != 0)
                throw std::runtime_error("warm sweep re-simulated");
            addSweepPhases(sweep.captureSeconds, sweep.digestSeconds,
                           sweep.replaySeconds);
            rows[i] = sweep.rows;
        });
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (pass.failed[i])
                continue;
            std::vector<core::ThresholdSweepRow> &ref =
                reference_[i % replicas];
            if (ref.empty())
                ref = rows[i];
            pass.digests[i] = rowsDigest(rows[i]);
            if (pass.digests[i] != rowsDigest(ref))
                pass.markFailed(i, "sweep rows differ between rounds");
            if (traced && i < replicas) { // one round
                addCount(Count::DetectFn, std::uint64_t(
                    rows[i][kThreshold1000].falseNegatives));
                addCount(Count::DetectFp, std::uint64_t(
                    rows[i][kThreshold1000].falsePositives));
            }
        }
        return pass.finish();
    }

    /** Sharded sweep rows == a serial TraceReplayer::replay tally. */
    VerifyResult
    verify() override
    {
        VerifyResult v;
        Fnv h;
        core::SweepRunner runner({poolWorkers(), cacheDir_});
        const std::size_t nw = defs_.size();
        const std::size_t nt = thresholds_.size();
        for (std::size_t r = 0; r < reference_.size(); ++r) {
            const trace::CaptureOptions opt = options(int(r));
            std::vector<std::shared_ptr<const trace::TraceFile>> files(nw);
            std::vector<std::unique_ptr<trace::TraceReplayer>> envs(nw);
            runner.parallelFor(nw, [&](std::size_t i) {
                files[i] = runner.captureFile(*defs_[i], opt);
                envs[i] = std::make_unique<trace::TraceReplayer>(
                    files[i]->meta(), *files[i]);
            });
            std::vector<detect::DetectionReport> reports(nw * nt);
            runner.parallelFor(nw * nt, [&](std::size_t job) {
                detect::DetectorConfig cfg;
                cfg.rateThreshold = thresholds_[job % nt];
                cfg.sav = opt.sav;
                reports[job] = envs[job / nt]->replay(cfg);
            });
            std::vector<core::ThresholdSweepRow> serial(nt);
            for (std::size_t job = 0; job < nw * nt; ++job) {
                const core::AccuracyResult acc = core::evaluateAccuracy(
                    defs_[job / nt]->info,
                    core::reportLocations(reports[job]));
                serial[job % nt].threshold = thresholds_[job % nt];
                serial[job % nt].falseNegatives += acc.falseNegatives;
                serial[job % nt].falsePositives += acc.falsePositives;
                addReport(&h, reports[job]);
            }
            ++v.checks;
            if (reference_[r].empty() ||
                    rowsDigest(serial) != rowsDigest(reference_[r])) {
                ++v.failed;
                v.errors.push_back("replica " + std::to_string(r) +
                                   ": sharded sweep != serial replay");
            }
        }
        ++v.checks;
        if (runner.stats().machineRuns != 0) {
            ++v.failed;
            v.errors.push_back("verification re-simulated");
        }
        v.digest = h.value();
        return v;
    }

  private:
    trace::CaptureOptions
    options(int replica) const
    {
        trace::CaptureOptions opt;
        opt.sav = 1;
        opt.scale = 4.0;
        return captureOptions(seed_, replica, opt);
    }

    void
    removeCache()
    {
        if (cacheDir_.empty())
            return;
        std::error_code ec;
        std::filesystem::remove_all(cacheDir_, ec);
        cacheDir_.clear();
    }

    std::uint64_t seed_;
    Size size_;
    std::string workDir_;
    std::vector<const WorkloadDef *> defs_;
    std::vector<double> thresholds_;
    std::string cacheDir_;
    int setups_ = 0;
    /** Per replica: the rows of its first sweep. */
    std::vector<std::vector<core::ThresholdSweepRow>> reference_;
};

/** repair: live LASER (detect, and repair when asked) on the buggy nine. */
class RepairWorkload final : public Workload
{
  public:
    RepairWorkload(std::uint64_t seed, Size size)
        : seed_(seed), size_(size), defs_(workloads::buggyWorkloads())
    {
    }

    void
    setup() override
    {
        // Warm-up: every program once per thread of the pool.
        util::ThreadPool pool(poolWorkers());
        const std::size_t n = defs_.size() * std::size_t(pool.workers() + 1);
        pool.parallelFor(n, [&](std::size_t i) {
            const auto [def, cfg] =
                item(i % (defs_.size() * std::size_t(size_.replicas)));
            (void)core::ExperimentRunner(cfg).run(*def, core::Scheme::Laser);
        });
    }

    PassResult
    runPass(bool traced) override
    {
        util::ThreadPool pool(poolWorkers());
        PassState pass(defs_.size() * std::size_t(size_.replicas));
        timedItems(&pass, &pool, [&](std::size_t i) {
            const auto [def, cfg] = item(i);
            LaserOutcome out;
            if (traced) {
                out = splitLaser(*def, cfg);
            } else {
                core::RunResult run =
                    core::ExperimentRunner(cfg).run(*def,
                                                    core::Scheme::Laser);
                out.stats = std::move(run.stats);
                out.pebs = run.pebs;
                out.detection = std::move(run.detection);
                out.repairApplied = run.repairApplied;
                out.runtimeCycles = run.runtimeCycles;
            }
            if (out.stats.truncated || out.runtimeCycles == 0)
                throw std::runtime_error(def->info.name + ": bad run");
            pass.digests[i] = laserDigest(out);
        });
        return pass.finish();
    }

    /**
     * Replica 0: the live LaserDetectOnly report equals the offline
     * replay of the same capture.
     */
    VerifyResult
    verify() override
    {
        VerifyResult v;
        std::vector<std::uint8_t> same(defs_.size(), 0);
        std::vector<std::uint64_t> digests(defs_.size(), 0);
        util::ThreadPool pool(poolWorkers());
        pool.parallelFor(defs_.size(), [&](std::size_t i) {
            const auto [def, cfg] = item(i);
            const detect::DetectionReport live =
                core::ExperimentRunner(cfg)
                    .run(*def, core::Scheme::LaserDetectOnly)
                    .detection;
            const trace::Trace captured =
                trace::captureTrace(*def, captureOptions(seed_, 0));
            const detect::DetectionReport offline =
                trace::replayDetection(captured, 1);
            same[i] = detect::reportsIdentical(live, offline);
            Fnv h;
            addReport(&h, offline);
            digests[i] = h.value();
        });
        Fnv h;
        for (std::size_t i = 0; i < defs_.size(); ++i) {
            ++v.checks;
            h.add(digests[i]);
            if (!same[i]) {
                ++v.failed;
                v.errors.push_back(defs_[i]->info.name +
                                   ": live report != offline replay");
            }
        }
        v.digest = h.value();
        return v;
    }

  private:
    std::pair<const WorkloadDef *, core::ExperimentConfig>
    item(std::size_t i) const
    {
        return {defs_[i % defs_.size()],
                experimentConfig(seed_, int(i / defs_.size()))};
    }

    std::uint64_t seed_;
    Size size_;
    std::vector<const WorkloadDef *> defs_;
};

} // namespace

bool
parseKind(const std::string &name, Kind *out)
{
    for (Kind kind : {Kind::Capture, Kind::CaptureDragon, Kind::Reanalyze,
                      Kind::Repair}) {
        if (name == kindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Capture:       return "capture";
      case Kind::CaptureDragon: return "capture_dragon";
      case Kind::Reanalyze:     return "reanalyze";
      case Kind::Repair:        return "repair";
    }
    return "?";
}

int
poolWorkers()
{
    const int cores =
        std::min(4, static_cast<int>(std::thread::hardware_concurrency()));
    return std::max(1, cores - 1);
}

Size
fullSize(Kind kind)
{
    switch (kind) {
      case Kind::Capture:
      case Kind::CaptureDragon:
        return {12, 1};
      case Kind::Reanalyze:
        return {4, 6};
      case Kind::Repair:
        return {30, 1};
    }
    return {};
}

std::unique_ptr<Workload>
makeWorkload(Kind kind, std::uint64_t seed, Size size,
             const std::string &work_dir)
{
    switch (kind) {
      case Kind::Capture:
        return std::make_unique<CaptureWorkload>(seed, size,
                                                 sim::ProtocolKind::Mesi);
      case Kind::CaptureDragon:
        return std::make_unique<CaptureWorkload>(seed, size,
                                                 sim::ProtocolKind::Dragon);
      case Kind::Reanalyze:
        return std::make_unique<ReanalyzeWorkload>(seed, size, work_dir);
      case Kind::Repair:
        return std::make_unique<RepairWorkload>(seed, size);
    }
    return nullptr;
}

void
probeSimAndProtocols(std::uint64_t seed)
{
    // Native runs (no PMU sink) of the corpus, replica 0, MESI.
    const std::vector<const WorkloadDef *> defs = corpus();
    std::vector<sim::MachineStats> stats(defs.size());
    std::vector<double> lines(defs.size());
    {
        util::ThreadPool pool(poolWorkers());
        pool.parallelFor(defs.size(), [&](std::size_t i) {
            const trace::TraceMeta meta = trace::makeCaptureMeta(
                *defs[i],
                captureOptions(seed, 0,
                               trace::CaptureOptions::forScheme("native")));
            workloads::WorkloadBuild build = defs[i]->build(meta.build);
            sim::Machine machine(std::move(build.program), meta.machine);
            build.applyTo(machine);
            LayerScope run(Layer::SimNative);
            stats[i] = machine.run();
            run.setUnits(stats[i].instructions);
            lines[i] = double(machine.protocol().linesTouched());
        });
    }

    // A seeded access stream over the median program's line count with
    // the corpus's load / store / atomic mix.
    double loads = 0, stores = 0, atomics = 0;
    for (const sim::MachineStats &s : stats) {
        loads += double(s.loads - s.atomics);
        stores += double(s.stores - s.atomics);
        atomics += double(s.atomics);
    }
    const double total = std::max(1.0, loads + stores + atomics);
    const auto line_count =
        static_cast<std::uint64_t>(std::max(1.0, median(lines)));
    struct Access
    {
        std::uint64_t addr;
        int core;
        bool write;
        bool loadClass;
    };
    constexpr std::size_t kAccesses = 1 << 20;
    std::vector<Access> stream(kAccesses);
    Rng rng(seed ^ 0x7072'6f74'6f63'6f6cULL);
    for (Access &a : stream) {
        const double u = rng.uniform();
        a.write = u >= loads / total;
        a.loadClass = u < loads / total || u >= (loads + stores) / total;
        a.core = static_cast<int>(rng.below(4));
        a.addr = 0x10000000ULL + 64 * rng.below(line_count) +
                 8 * rng.below(8);
    }
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
        for (auto [kind, layer] :
             {std::pair{sim::ProtocolKind::Mesi, Layer::ProtocolMesi},
              std::pair{sim::ProtocolKind::Dragon, Layer::ProtocolDragon}}) {
            const std::unique_ptr<sim::CoherenceProtocol> proto =
                sim::makeProtocol(kind, 4);
            LayerScope scope(layer, kAccesses);
            for (const Access &a : stream)
                sink += static_cast<std::uint64_t>(
                    proto->access(a.core, a.addr, a.write, a.loadClass));
        }
    }
    if (sink == 0)
        throw std::runtime_error("protocol probe produced no outcomes");
}

} // namespace laser::benchpipe
