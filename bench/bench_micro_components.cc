/**
 * @file
 * google-benchmark microbenchmarks for the reproduction's hot
 * components: the software store buffer, the Figure 5 cache-line model,
 * the detector pipeline, the MESI and Dragon coherence backends the
 * machine runs, the interpreter, whole-program machine runs, and one
 * report-many sweep point of offline re-analysis.
 * BENCH_micro_components records ns_per_item for every benchmark that
 * counts items (ns per simulated instruction for the machine runs, ns
 * per configuration for the sweep point).
 */

#include <benchmark/benchmark.h>

#include "detect/cacheline_model.h"
#include "detect/pipeline.h"
#include "obs/export.h"
#include "isa/assembler.h"
#include "pebs/monitor.h"
#include "sim/machine.h"
#include "sim/protocol.h"
#include "sim/ssb.h"
#include "trace/capture.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace_file.h"
#include "util/rng.h"
#include "workloads/workload.h"

using namespace laser;
using namespace laser::isa;

static void
BM_SsbPut(benchmark::State &state)
{
    sim::SoftwareStoreBuffer ssb;
    std::uint64_t addr = 0x1000;
    std::uint64_t seq = 0;
    for (auto _ : state) {
        ++seq;
        ssb.put(addr, 8, seq, seq);
        addr = 0x1000 + (seq % 8) * 8; // stay within the flush cap
        if (ssb.entryCount() > 8)
            benchmark::DoNotOptimize(ssb.drain());
    }
}
BENCHMARK(BM_SsbPut);

static void
BM_SsbLookup(benchmark::State &state)
{
    sim::SoftwareStoreBuffer ssb;
    for (int i = 0; i < 8; ++i)
        ssb.put(0x1000 + i * 8, 8, i, i + 1);
    std::uint64_t v = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ssb.getFull(0x1000 + (i++ % 16) * 8, 8, &v));
    }
}
BENCHMARK(BM_SsbLookup);

/**
 * One drain of @p entries slots. Pausing the timer costs hundreds of ns,
 * so each iteration fills a batch of buffers untimed and drains the whole
 * batch timed; items_per_second counts drains.
 */
static void
BM_SsbFlushDrain(benchmark::State &state)
{
    constexpr int kBatch = 64;
    const int entries = static_cast<int>(state.range(0));
    std::vector<sim::SoftwareStoreBuffer> batch(kBatch);
    for (auto _ : state) {
        state.PauseTiming();
        for (sim::SoftwareStoreBuffer &ssb : batch) {
            for (int i = 0; i < entries; ++i)
                ssb.put(0x1000 + i * 8, 8, i, i + 1);
        }
        state.ResumeTiming();
        for (sim::SoftwareStoreBuffer &ssb : batch)
            benchmark::DoNotOptimize(ssb.drain());
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SsbFlushDrain)->Arg(8)->Arg(64)->Arg(512);

/**
 * The instrumented re-run's load miss path: an unaligned 8-byte load
 * spanning two chunks, only one of them partly buffered, goes through
 * getFull, then merge. Seven other chunks fill the buffer to the default
 * flush cap.
 */
static void
BM_SsbSpanningMerge(benchmark::State &state)
{
    sim::SoftwareStoreBuffer ssb;
    for (int i = 0; i < 7; ++i)
        ssb.put(0x2000 + i * 16, 8, i, i + 1);
    ssb.put(0x1008, 2, 0xbeef, 8);
    std::uint64_t addr = 0x1004;
    benchmark::DoNotOptimize(addr);
    std::uint64_t v = 0;
    for (auto _ : state) {
        std::uint64_t out = 0x1111111111111111ULL;
        if (!ssb.getFull(addr, 8, &v))
            out = ssb.merge(addr, 8, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_SsbSpanningMerge);

/** Figure 5's decision: one access's footprint against the previous. */
static void
BM_CacheLineModel(benchmark::State &state)
{
    Rng rng(42);
    std::uint64_t prev_mask = 0;
    bool prev_write = false;
    for (auto _ : state) {
        const std::uint64_t addr = 0x1000000 + rng.below(8) * 8;
        const bool is_write = rng.chance(0.5);
        const std::uint64_t mask = detect::CacheLineModel::byteMask(addr, 8);
        benchmark::DoNotOptimize(detect::CacheLineModel::classify(
            prev_mask, prev_write, mask, is_write));
        prev_mask = mask;
        prev_write = is_write;
    }
}
BENCHMARK(BM_CacheLineModel);

/** One backend over the same seeded access stream as the other. */
static void
BM_CoherenceAccess(benchmark::State &state, sim::ProtocolKind kind)
{
    const std::unique_ptr<sim::CoherenceProtocol> protocol =
        sim::makeProtocol(kind, 4);
    Rng rng(43);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            protocol->access(static_cast<int>(rng.below(4)),
                             0x1000 + rng.below(128) * 8, rng.chance(0.4),
                             true));
    }
}
BENCHMARK_CAPTURE(BM_CoherenceAccess, mesi, sim::ProtocolKind::Mesi);
BENCHMARK_CAPTURE(BM_CoherenceAccess, dragon, sim::ProtocolKind::Dragon);

/**
 * Accesses drawn like BM_CoherenceAccess's, paid for as the machine
 * pays: the private-hit filter first, the backend only when the filter
 * cannot answer.
 */
static void
BM_CoherenceFilteredAccess(benchmark::State &state, sim::ProtocolKind kind)
{
    const std::unique_ptr<sim::CoherenceProtocol> protocol =
        sim::makeProtocol(kind, 4);
    Rng rng(43);
    for (auto _ : state) {
        const int core = static_cast<int>(rng.below(4));
        const std::uint64_t addr = 0x1000 + rng.below(128) * 8;
        const bool is_write = rng.chance(0.4);
        benchmark::DoNotOptimize(
            protocol->privateHit(core, protocol->lineOf(addr), is_write)
                ? sim::AccessOutcome::L1Hit
                : protocol->access(core, addr, is_write, true));
    }
}
BENCHMARK_CAPTURE(BM_CoherenceFilteredAccess, mesi, sim::ProtocolKind::Mesi);
BENCHMARK_CAPTURE(BM_CoherenceFilteredAccess, dragon,
                  sim::ProtocolKind::Dragon);

namespace {

isa::Program
detectorProgram()
{
    Asm a("micro");
    a.store(R2, 0, R3, 8);
    a.load(R4, R2, 0, 8);
    a.halt();
    return a.finalize();
}

} // namespace

static void
BM_DetectorPipeline(benchmark::State &state)
{
    isa::Program prog = detectorProgram();
    mem::AddressSpace space(prog, 4);
    sim::TimingModel timing;
    const detect::DetectorContext ctx(prog, space, space.renderProcMaps(),
                                      timing);
    detect::DetectorPipeline pipeline(ctx);
    Rng rng(44);
    pebs::PebsRecord rec;
    for (auto _ : state) {
        rec.pc = space.indexToPc(static_cast<std::uint32_t>(
            rng.below(prog.size())));
        rec.dataAddr = 0x1000000 + rng.below(16) * 8;
        rec.cycle = 1000;
        pipeline.onRecord(rec);
    }
}
BENCHMARK(BM_DetectorPipeline);

static void
BM_InterpreterThroughput(benchmark::State &state)
{
    // Instructions-per-second of the simulator on a tight loop.
    for (auto _ : state) {
        Asm a("loop");
        a.movi(R2, 20000);
        Asm::Label l = a.here();
        a.addi(R3, R3, 1);
        a.subi(R2, R2, 1);
        a.bne(R2, R0, l);
        a.halt();
        sim::Machine m(a.finalize());
        sim::MachineStats s = m.run();
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(s.instructions));
    }
}
BENCHMARK(BM_InterpreterThroughput);

/** One whole corpus program on one protocol backend. */
static void
BM_MachineRun(benchmark::State &state, const char *workload,
              sim::ProtocolKind kind)
{
    const workloads::WorkloadBuild build =
        workloads::findWorkload(workload)->build({});
    sim::MachineConfig mc;
    mc.protocol = kind;
    std::int64_t instructions = 0;
    for (auto _ : state) {
        sim::Machine m(build.program, mc);
        build.applyTo(m);
        const sim::MachineStats stats = m.run();
        benchmark::DoNotOptimize(stats.cycles);
        instructions += static_cast<std::int64_t>(stats.instructions);
    }
    state.SetItemsProcessed(instructions);
}
BENCHMARK_CAPTURE(BM_MachineRun, histogram_alt_mesi, "histogram'",
                  sim::ProtocolKind::Mesi)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MachineRun, histogram_alt_dragon, "histogram'",
                  sim::ProtocolKind::Dragon)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MachineRun, kmeans_mesi, "kmeans",
                  sim::ProtocolKind::Mesi)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MachineRun, kmeans_dragon, "kmeans",
                  sim::ProtocolKind::Dragon)
    ->Unit(benchmark::kMillisecond);

/**
 * The offline digest of one trace as a threshold sweep runs it: a
 * histogram' capture at SAV 1 and scale 4 (the reanalyze benchmark's
 * largest program) encoded into a trace file image, then one-shard
 * ParallelReplayer digests over it — block decode, the detector's
 * stages 1-5, the rate-window summary and the line aggregates. One item
 * per record, so ns_per_item is the file-backed digest cost per record.
 */
static void
BM_FileDigest(benchmark::State &state)
{
    trace::CaptureOptions opt;
    opt.sav = 1;
    opt.scale = 4.0;
    const trace::Trace trace =
        trace::captureTrace(*workloads::findWorkload("histogram'"), opt);
    trace::TraceWriter writer(trace.meta);
    writer.appendAll(trace.records);
    trace::TraceFile file;
    if (file.openBytes(writer.finalize()) != trace::TraceStatus::Ok) {
        state.SkipWithError("encoded trace does not open");
        return;
    }
    const trace::TraceReplayer env(file.meta(), file);
    trace::ParallelReplayer::Options one_shard;
    one_shard.shards = 1;
    std::int64_t records = 0;
    for (auto _ : state) {
        const trace::ParallelReplayer digest(env, one_shard);
        benchmark::DoNotOptimize(digest.state().totalRecords);
        records += static_cast<std::int64_t>(file.recordCount());
    }
    state.SetItemsProcessed(records);
}
BENCHMARK(BM_FileDigest)->Unit(benchmark::kMillisecond);

/**
 * Report-many: replay(cfg) at Figure 9's thresholds over one digest of
 * a histogram' SAV-1 capture. One item per configuration, so
 * ns_per_item is the cost of one sweep point.
 */
static void
BM_ReplayReport(benchmark::State &state)
{
    trace::CaptureOptions opt;
    opt.sav = 1;
    const trace::Trace trace =
        trace::captureTrace(*workloads::findWorkload("histogram'"), opt);
    trace::TraceWriter writer(trace.meta);
    writer.appendAll(trace.records);
    trace::TraceFile file;
    if (file.openBytes(writer.finalize()) != trace::TraceStatus::Ok) {
        state.SkipWithError("encoded trace does not open");
        return;
    }
    const trace::TraceReplayer env(file.meta(), file);
    const trace::ParallelReplayer digest(env);
    const std::vector<double> thresholds = {32,   64,   128,  256,
                                            512,  1000, 2000, 4000,
                                            8000, 16000, 32000, 64000};
    std::int64_t configs = 0;
    for (auto _ : state) {
        for (double threshold : thresholds) {
            detect::DetectorConfig cfg;
            cfg.rateThreshold = threshold;
            cfg.sav = opt.sav;
            benchmark::DoNotOptimize(digest.replay(cfg));
        }
        configs += static_cast<std::int64_t>(thresholds.size());
    }
    state.SetItemsProcessed(configs);
}
BENCHMARK(BM_ReplayReport)->Unit(benchmark::kMicrosecond);

namespace {

/** Console output plus ns_per_item of every item-counting benchmark. */
class TelemetryReporter final : public benchmark::ConsoleReporter
{
  public:
    explicit TelemetryReporter(obs::Json &results) : results_(results) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &run : runs) {
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end() && it->second.value > 0)
                results_.set(run.benchmark_name() + ".ns_per_item",
                             obs::Json(1e9 / it->second.value));
        }
    }

  private:
    obs::Json &results_;
};

} // namespace

// Expanded BENCHMARK_MAIN so the run also emits BENCH_micro_components
// telemetry (each benchmark's ns per item, from TelemetryReporter).
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    obs::BenchReport telemetry("micro_components");
    TelemetryReporter reporter(telemetry.results());
    const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    telemetry.results().set("benchmarks_run",
                            obs::Json(std::uint64_t(ran)));
    telemetry.write();
    return 0;
}
