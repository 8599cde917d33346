/**
 * @file
 * Unit and integration tests for LASERREPAIR: CFG construction, loop
 * depths, post-dominators, region/flush analysis, the cost model, alias
 * speculation, instrumentation correctness, end-to-end HITM
 * reduction on a falsely-sharing two-thread program, and golden digests
 * of the buggy programs' repaired runs under each SSB design.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "core/experiment.h"
#include "isa/assembler.h"
#include "machine_digest.h"
#include "repair/cfg.h"
#include "repair/repairer.h"
#include "sim/machine.h"
#include "trace/capture.h"

namespace laser::repair {
namespace {

using namespace laser::isa;
using laser::sim::Machine;
using laser::sim::MachineConfig;
using laser::sim::MachineStats;

/**
 * Canonical loop program (one thread active):
 *   setup; loop { store A; store B; } post; halt
 * Returns the indices of the two stores via out parameters.
 */
isa::Program
loopProgram(std::uint32_t *store_a, std::uint32_t *store_b)
{
    Asm a("loop");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000000);
    a.movi(R3, 1000);
    Asm::Label loop = a.here();
    *store_a = a.store(R2, 0, R3, 8);
    *store_b = a.store(R2, 8, R3, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.movi(R4, 99); // post-loop block
    a.bind(done);
    a.halt();
    return a.finalize();
}

// ---------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------

TEST(Cfg, FindsLoopAndDepths)
{
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    Cfg cfg(p, p.segments[0]);

    const int loop_block = cfg.blockOf(sa);
    ASSERT_GE(loop_block, 0);
    EXPECT_EQ(cfg.blocks()[loop_block].loopDepth, 1);
    // Entry block is outside the loop.
    EXPECT_EQ(cfg.blocks()[cfg.blockOf(0)].loopDepth, 0);
    // The loop block contains both stores.
    EXPECT_EQ(cfg.blockOf(sb), loop_block);
    EXPECT_EQ(cfg.blocks()[loop_block].storeOps, 2);
}

TEST(Cfg, EdgesAreConsistent)
{
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    Cfg cfg(p, p.segments[0]);
    for (std::size_t b = 0; b < cfg.blocks().size(); ++b) {
        for (int s : cfg.blocks()[b].succs) {
            const auto &preds = cfg.blocks()[s].preds;
            EXPECT_NE(std::find(preds.begin(), preds.end(), int(b)),
                      preds.end());
        }
    }
    EXPECT_FALSE(cfg.exits().empty());
}

TEST(Cfg, LoopBlockSelfLoopEdge)
{
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    Cfg cfg(p, p.segments[0]);
    const int loop_block = cfg.blockOf(sa);
    const auto &succs = cfg.blocks()[loop_block].succs;
    // Loop block branches to itself and falls through to the post block.
    EXPECT_NE(std::find(succs.begin(), succs.end(), loop_block),
              succs.end());
    EXPECT_EQ(succs.size(), 2u);
}

TEST(Cfg, PostDominators)
{
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    Cfg cfg(p, p.segments[0]);
    const int loop_block = cfg.blockOf(sa);
    const int post_block = cfg.blockOf(sb + 3); // "movi r4, 99"
    ASSERT_NE(loop_block, post_block);
    EXPECT_TRUE(cfg.postDominates(post_block, loop_block));
    EXPECT_FALSE(cfg.postDominates(loop_block, post_block));
    // Every block post-dominates itself.
    EXPECT_TRUE(cfg.postDominates(loop_block, loop_block));
    // Nearest common post-dominator of the loop block is the post block.
    EXPECT_EQ(cfg.commonPostDominator({loop_block}), post_block);
}

TEST(Cfg, DiamondCommonPostDominator)
{
    Asm a("diamond");
    Asm::Label left = a.newLabel();
    Asm::Label join = a.newLabel();
    a.tid(R1);
    a.beq(R1, R0, left);
    a.movi(R2, 1); // right arm
    a.jmp(join);
    a.bind(left);
    a.movi(R2, 2); // left arm
    a.bind(join);
    a.halt();
    isa::Program p = a.finalize();
    Cfg cfg(p, p.segments[0]);

    const int right = cfg.blockOf(2);
    const int leftb = cfg.blockOf(4);
    const int joinb = cfg.blockOf(5);
    EXPECT_EQ(cfg.commonPostDominator({right, leftb}), joinb);
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

TEST(Repairer, PlacesFlushAtLoopExit)
{
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    Repairer r(p);
    RepairPlan plan = r.analyze({sa, sb});
    ASSERT_TRUE(plan.applied) << plan.reason;
    // Flush inserted before the post-loop block, not inside the loop.
    const int flush_block = r.cfg().blockOf(plan.flushInsertBefore);
    EXPECT_EQ(r.cfg().blocks()[flush_block].loopDepth, 0);
    EXPECT_GT(plan.flushInsertBefore, sb);
    // Both stores instrumented.
    EXPECT_NE(std::find(plan.instrumentedOps.begin(),
                        plan.instrumentedOps.end(), sa),
              plan.instrumentedOps.end());
    EXPECT_GE(plan.estRatio(), 8.0);
}

TEST(Repairer, RejectsRegionWithCall)
{
    Asm a("call_in_loop");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000000);
    a.movi(R12, 0x600040);
    a.movi(R3, 100);
    Asm::Label loop = a.here();
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    a.callLib(LibFn::BarrierWait); // opaque call inside the loop
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();

    Repairer r(p);
    RepairPlan plan = r.analyze({st});
    EXPECT_FALSE(plan.applied);
    EXPECT_NE(plan.reason.find("opaque"), std::string::npos);
}

TEST(Repairer, RejectsLowStoreFlushRatio)
{
    // A fence right next to the store: every iteration flushes, so the
    // ratio is ~1 and repair cannot profit (Section 5.4: "fundamental
    // contention in the program that LASERREPAIR cannot repair").
    Asm a("fenced");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000000);
    a.movi(R3, 100);
    Asm::Label loop = a.here();
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    a.fence();
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();

    Repairer r(p);
    RepairPlan plan = r.analyze({st});
    EXPECT_FALSE(plan.applied);
    EXPECT_NE(plan.reason.find("ratio"), std::string::npos);
}

TEST(Repairer, RejectsPcsOutsideAppCode)
{
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    Repairer r(p);
    RepairPlan plan = r.analyze({static_cast<std::uint32_t>(p.size() + 5)});
    EXPECT_FALSE(plan.applied);
}

TEST(Repairer, AliasSpeculationSkipsDisjointLoads)
{
    // Loads through a base register never used by stores are skipped.
    Asm a("alias");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000000); // store base
    a.movi(R5, 0x1100000); // load base (provably distinct here)
    a.movi(R3, 200);
    Asm::Label loop = a.here();
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    const std::uint32_t ld = a.load(R4, R5, 0, 8);
    a.add(R6, R6, R4);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();

    Repairer r(p);
    RepairPlan plan = r.analyze({st});
    ASSERT_TRUE(plan.applied) << plan.reason;
    EXPECT_NE(std::find(plan.skippedLoads.begin(),
                        plan.skippedLoads.end(), ld),
              plan.skippedLoads.end());

    // With speculation disabled the load is instrumented instead.
    RepairConfig cfg;
    cfg.aliasSpeculation = false;
    Repairer r2(p, cfg);
    RepairPlan plan2 = r2.analyze({st});
    ASSERT_TRUE(plan2.applied);
    EXPECT_TRUE(plan2.skippedLoads.empty());
    EXPECT_NE(std::find(plan2.instrumentedOps.begin(),
                        plan2.instrumentedOps.end(), ld),
              plan2.instrumentedOps.end());
}

TEST(Repairer, LoadsThroughStoreBaseAreInstrumented)
{
    // A load through the same base register as a store must go through
    // the SSB (it may read a buffered value).
    Asm a("aliasing");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000000);
    a.movi(R3, 50);
    Asm::Label loop = a.here();
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    const std::uint32_t ld = a.load(R4, R2, 0, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();

    Repairer r(p);
    RepairPlan plan = r.analyze({st});
    ASSERT_TRUE(plan.applied) << plan.reason;
    EXPECT_TRUE(plan.skippedLoads.empty());
    EXPECT_NE(std::find(plan.instrumentedOps.begin(),
                        plan.instrumentedOps.end(), ld),
              plan.instrumentedOps.end());
}

// ---------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------

TEST(Instrument, ProducesValidProgramWithFlush)
{
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    Repairer r(p);
    RepairPlan plan = r.analyze({sa, sb});
    ASSERT_TRUE(plan.applied);

    std::vector<std::uint32_t> index_map;
    isa::Program out = r.instrument(plan, &index_map);
    EXPECT_EQ(out.validate(), "");
    EXPECT_EQ(out.size(), p.size() + 1); // one flush inserted

    int flushes = 0;
    for (const auto &insn : out.code)
        flushes += insn.op == Op::SsbFlush;
    EXPECT_EQ(flushes, 1);
    // Stores carry the SSB flag in the rewritten binary.
    EXPECT_TRUE(out.code[index_map[sa]].useSsb);
    EXPECT_TRUE(out.code[index_map[sb]].useSsb);
}

TEST(Instrument, PreservesSingleThreadResults)
{
    // Section 5.2: SSB instrumentation must preserve single-threaded
    // semantics. Run the original and instrumented loop and compare
    // final architectural state.
    std::uint32_t sa = 0, sb = 0;
    isa::Program p = loopProgram(&sa, &sb);
    RepairOutcome out = repairProgram(p, {sa, sb});
    ASSERT_TRUE(out.plan.applied);

    Machine orig(p);
    Machine fixed(out.program);
    orig.run();
    MachineStats fs = fixed.run();
    EXPECT_EQ(orig.memory().read(0x1000000, 8),
              fixed.memory().read(0x1000000, 8));
    EXPECT_EQ(orig.memory().read(0x1000008, 8),
              fixed.memory().read(0x1000008, 8));
    EXPECT_EQ(orig.reg(0, R4), fixed.reg(0, R4));
    EXPECT_GT(fs.ssbStores, 0u);
    EXPECT_GT(fs.ssbFlushes, 0u);
}

/** Two threads falsely sharing one line, each in a tight store loop. */
isa::Program
falseSharingLoop(int iters, std::vector<std::uint32_t> *stores)
{
    Asm a("fsloop");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.movi(R9, 2);
    a.bge(R1, R9, done);   // threads 0 and 1 only
    a.movi(R2, 0x1000000);
    a.muli(R3, R1, 16);    // thread 0 -> offset 0, thread 1 -> offset 16
    a.add(R2, R2, R3);
    a.movi(R3, iters);
    Asm::Label loop = a.here();
    stores->push_back(a.store(R2, 0, R3, 8));
    stores->push_back(a.store(R2, 8, R3, 8));
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    return a.finalize();
}

TEST(Instrument, RepairEliminatesFalseSharingHitms)
{
    std::vector<std::uint32_t> stores;
    isa::Program p = falseSharingLoop(3000, &stores);
    RepairOutcome out = repairProgram(p, stores);
    ASSERT_TRUE(out.plan.applied) << out.plan.reason;

    Machine native(p);
    Machine repaired(out.program);
    MachineStats ns = native.run();
    MachineStats rs = repaired.run();

    // The SSB batches each thread's stores: HITMs collapse by orders of
    // magnitude and the run gets faster despite SSB software costs.
    EXPECT_GT(ns.hitmTotal(), 2000u);
    EXPECT_LT(rs.hitmTotal(), ns.hitmTotal() / 100);
    EXPECT_LT(rs.cycles, ns.cycles);

    // Memory results identical.
    for (std::uint64_t off : {0, 8, 16, 24})
        EXPECT_EQ(native.memory().read(0x1000000 + off, 8),
                  repaired.memory().read(0x1000000 + off, 8));
}

TEST(Instrument, RepairedProgramStillTso)
{
    std::vector<std::uint32_t> stores;
    isa::Program p = falseSharingLoop(500, &stores);
    RepairOutcome out = repairProgram(p, stores);
    ASSERT_TRUE(out.plan.applied);

    MachineConfig cfg;
    cfg.recordTsoTrace = true;
    Machine m(out.program, cfg);
    m.run();

    std::map<int, std::uint64_t> prev_max;
    for (const auto &ev : m.tsoTrace()) {
        ASSERT_LE(ev.minSeq, ev.maxSeq);
        ASSERT_EQ(ev.minSeq, prev_max[ev.tid] + 1)
            << "TSO violation for thread " << ev.tid;
        prev_max[ev.tid] = ev.maxSeq;
    }
}

TEST(Instrument, AliasCheckGuardsInsertedAndBenign)
{
    Asm a("alias2");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000000);
    a.movi(R5, 0x1100000);
    a.movi(R3, 100);
    a.movi(R7, 0);
    Asm::Label loop = a.here();
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    a.load(R4, R5, 0, 8);
    a.add(R7, R7, R4);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();

    RepairOutcome out = repairProgram(p, {st});
    ASSERT_TRUE(out.plan.applied);
    ASSERT_EQ(out.plan.skippedLoads.size(), 1u);

    Machine m(out.program);
    MachineStats s = m.run();
    EXPECT_GT(s.aliasChecks, 0u);
    EXPECT_EQ(s.aliasMisspecs, 0u); // bases never alias here
    EXPECT_EQ(m.reg(0, R7), 0);     // loads of untouched memory: zeros
}

TEST(Instrument, AliasMisspeculationRecoversByFlush)
{
    // The "skipped" load actually aliases the store (same address via a
    // different register): the runtime check must flush and the load
    // must observe the buffered value.
    Asm a("alias3");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000000);
    a.movi(R5, 0x1000000); // same address, different register
    a.movi(R3, 77);
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    a.load(R4, R5, 0, 8);
    a.movi(R6, 1);
    Asm::Label loop = a.here(); // trivial loop to give the analysis one
    a.subi(R6, R6, 1);
    a.store(R2, 8, R3, 8);
    a.bne(R6, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();

    RepairOutcome out = repairProgram(p, {st});
    if (!out.plan.applied)
        GTEST_SKIP() << "analysis declined: " << out.plan.reason;

    Machine m(out.program);
    MachineStats s = m.run();
    if (!out.plan.skippedLoads.empty()) {
        EXPECT_GT(s.aliasMisspecs, 0u);
    }
    EXPECT_EQ(m.reg(0, R4), 77); // correctness regardless of speculation
}

// ---------------------------------------------------------------------
// Repaired runs across SSB designs
// ---------------------------------------------------------------------

/** A store-buffer design bench_ablation_ssb compares. */
struct SsbDesign
{
    sim::SsbMode mode;
    int maxEntries;
};

constexpr SsbDesign kSsbDesigns[] = {
    {sim::SsbMode::Coalescing, 2}, {sim::SsbMode::Coalescing, 8},
    {sim::SsbMode::Coalescing, 32}, {sim::SsbMode::Fifo, 8},
    {sim::SsbMode::Fifo, 1024},
};

/** The buggy programs whose LASER run applies repair. */
constexpr const char *kRepairedWorkloads[] = {
    "histogram'", "linear_regression", "streamcluster"};

/**
 * statsDigest() of one repaired run and the StreamHashSink hash of its
 * PMU callbacks.
 */
struct RunGolden
{
    std::uint64_t stats;
    std::uint64_t stream;
};

// Indexed [workload][design]. Captured with the byte-wise store buffer
// (one std::map slot lookup per byte) that preceded the chunk-wise one,
// so they pin that the rewrite changed no simulated outcome in any
// design.
constexpr RunGolden kRepairedRunGoldens[][std::size(kSsbDesigns)] = {
    {
        // histogram': coalescing 2, 8, 32; FIFO 8, 1024
        {0x49c28d0ba309549aULL, 0xf39c94516c4344b4ULL},
        {0xf52872b2d85f4ac1ULL, 0x27a81359c05ae9bfULL},
        {0xc6fc43af396921f3ULL, 0x374f7608cf16ac13ULL},
        {0x5a928b03eff7e6beULL, 0x74619945c0504ab7ULL},
        {0xbe40218aed2acf9dULL, 0xd2a607f2e6cc8819ULL},
    },
    {
        // linear_regression: coalescing 2, 8, 32; FIFO 8, 1024
        {0x5fe602bd092f9b36ULL, 0x3dff4d5fb91d3f07ULL},
        {0x5e2af0112b75cb58ULL, 0x36d930752e014c5fULL},
        {0x5e2af0112b75cb58ULL, 0x36d930752e014c5fULL},
        {0xc74f2beaab0f796dULL, 0x3cfea0f9ed633b3dULL},
        {0x81ac31194aea3449ULL, 0x4d59a3757a74042fULL},
    },
    {
        // streamcluster: coalescing 2, 8, 32; FIFO 8, 1024
        {0x1467a615caca739cULL, 0x16207f50893390abULL},
        {0x1467a615caca739cULL, 0x16207f50893390abULL},
        {0x1467a615caca739cULL, 0x16207f50893390abULL},
        {0xd1b19ee438e2a5d2ULL, 0x30549e09f35efdeULL},
        {0x5c208a13146ddf6fULL, 0xbde6e4dcac039832ULL},
    },
};

static_assert(std::size(kRepairedRunGoldens) ==
              std::size(kRepairedWorkloads));

TEST(Instrument, RepairedRunsMatchGoldensAcrossSsbDesigns)
{
    core::ExperimentRunner runner;
    for (std::size_t wi = 0; wi < std::size(kRepairedWorkloads); ++wi) {
        const workloads::WorkloadDef *w =
            workloads::findWorkload(kRepairedWorkloads[wi]);
        ASSERT_NE(w, nullptr);
        // The plan the LASER run applies, instrumented into the same
        // build, run as that run's re-execution is configured.
        const core::RunResult laser = runner.run(*w, core::Scheme::Laser);
        ASSERT_TRUE(laser.repairApplied) << w->info.name;
        const trace::TraceMeta meta = trace::makeCaptureMeta(
            *w, trace::CaptureOptions::forScheme("laser-detect"));
        const workloads::WorkloadBuild build = w->build(meta.build);
        Repairer repairer(build.program, runner.config().repair);
        const RepairPlan plan = repairer.analyze(laser.detection.repairPcs);
        ASSERT_TRUE(plan.applied) << w->info.name;
        const isa::Program instrumented = repairer.instrument(plan);
        for (std::size_t di = 0; di < std::size(kSsbDesigns); ++di) {
            MachineConfig mc = meta.machine;
            mc.timing.base += runner.config().timing.pinBaseOverhead;
            mc.ssbMode = kSsbDesigns[di].mode;
            mc.ssbMaxEntries = kSsbDesigns[di].maxEntries;
            Machine m(instrumented, mc);
            build.applyTo(m);
            sim::StreamHashSink sink;
            m.setPmuSink(&sink);
            const MachineStats s = m.run();
            const RunGolden &golden = kRepairedRunGoldens[wi][di];
            EXPECT_GT(s.ssbStores, 0u);
            EXPECT_EQ(sim::statsDigest(s), golden.stats)
                << w->info.name << " design " << di << std::hex << " 0x"
                << sim::statsDigest(s);
            EXPECT_EQ(sink.h.hash, golden.stream)
                << w->info.name << " design " << di << std::hex << " 0x"
                << sink.h.hash;
        }
    }
}

} // namespace
} // namespace laser::repair
