/**
 * @file
 * Tests for sharded parallel replay and the scheme-agnostic analysis
 * sinks: the merged DetectionReport must be field-identical to the
 * serial replay for every registered workload; DetectorState merging is
 * exercised at the unit level (boundary reclassification, window-order
 * rate scan); and the VTune/Sheriff capture-replay paths must reproduce
 * their live in-process reports.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/experiment.h"
#include "core/sweep_runner.h"
#include "detect/detector.h"
#include "detect/detector_state.h"
#include "detect/pipeline.h"
#include "isa/assembler.h"
#include "trace/capture.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace_file.h"
#include "util/thread_pool.h"

namespace laser::trace {
namespace {

// ---------------------------------------------------------------------
// DetectorState merge units
// ---------------------------------------------------------------------

using detect::DetectorPipeline;
using detect::DetectorState;
using detect::SharingOutcome;

struct PipelineFixture
{
    isa::Program prog = [] {
        isa::Asm a("demo");
        a.at(10).store(isa::R2, 0, isa::R3, 8); // index 0, app store
        a.at(11).load(isa::R4, isa::R2, 0, 8);  // index 1, app load
        a.halt();
        return a.finalize();
    }();
    mem::AddressSpace space{prog, 2};
    sim::TimingModel timing{};
    detect::DetectorContext ctx{prog, space, space.renderProcMaps(),
                                timing};

    pebs::PebsRecord
    record(std::uint32_t index, std::uint64_t addr,
           std::uint64_t cycle) const
    {
        pebs::PebsRecord r;
        r.pc = space.indexToPc(index);
        r.dataAddr = addr;
        r.core = 0;
        r.cycle = cycle;
        return r;
    }
};

/** Digest @p recs split at @p cut into two shards and merge. */
DetectorState
digestSplit(const PipelineFixture &f,
            const std::vector<pebs::PebsRecord> &recs, std::size_t cut)
{
    DetectorPipeline a(f.ctx, {}, DetectorPipeline::Mode::Shard);
    DetectorPipeline b(f.ctx, {}, DetectorPipeline::Mode::Shard);
    for (std::size_t i = 0; i < recs.size(); ++i)
        (i < cut ? a : b).onRecord(recs[i]);
    DetectorState merged = a.takeState();
    merged.mergeFrom(b.takeState());
    return merged;
}

TEST(DetectorStateMerge, ReclassifiesShardBoundaryFirstAccess)
{
    PipelineFixture f;
    // Serial: store to bytes 0-7, then store to bytes 32-39 of the same
    // line => the second access is false sharing. Split between the two
    // accesses: shard B sees its first access unclassified until merge.
    const std::vector<pebs::PebsRecord> recs = {
        f.record(0, 0x1000000, 100),
        f.record(0, 0x1000020, 200),
    };
    for (std::size_t cut = 0; cut <= recs.size(); ++cut) {
        const DetectorState merged = digestSplit(f, recs, cut);
        EXPECT_EQ(merged.fsEvents, 1u) << "cut " << cut;
        EXPECT_EQ(merged.tsEvents, 0u) << "cut " << cut;
        ASSERT_EQ(merged.rateEvents.size(), 2u) << "cut " << cut;
        EXPECT_EQ(merged.rateEvents[1].outcome,
                  SharingOutcome::FalseSharing)
            << "cut " << cut;
        EXPECT_EQ(merged.pcStats.at(0).fs, 1u) << "cut " << cut;
    }
}

TEST(DetectorStateMerge, ReadReadBoundaryStaysUnclassified)
{
    PipelineFixture f;
    // Loads on both sides of the boundary: read-read is not contention.
    const std::vector<pebs::PebsRecord> recs = {
        f.record(1, 0x1000000, 100),
        f.record(1, 0x1000000, 200),
    };
    const DetectorState merged = digestSplit(f, recs, 1);
    EXPECT_EQ(merged.tsEvents, 0u);
    EXPECT_EQ(merged.fsEvents, 0u);
    EXPECT_EQ(merged.rateEvents[1].outcome, SharingOutcome::None);
}

TEST(DetectorStateMerge, CarriesLastAccessAcrossEmptyMiddleShard)
{
    PipelineFixture f;
    // Shard B holds no access to the line: A's last access must still
    // classify C's first one (associative fold across empty spans).
    DetectorPipeline a(f.ctx, {}, DetectorPipeline::Mode::Shard);
    DetectorPipeline b(f.ctx, {}, DetectorPipeline::Mode::Shard);
    DetectorPipeline c(f.ctx, {}, DetectorPipeline::Mode::Shard);
    a.onRecord(f.record(0, 0x1000000, 100));
    b.onRecord(f.record(0, 0x2000000, 200)); // different line
    c.onRecord(f.record(0, 0x1000004, 300)); // overlaps A's access
    DetectorState merged = a.takeState();
    merged.mergeFrom(b.takeState());
    merged.mergeFrom(c.takeState());
    EXPECT_EQ(merged.tsEvents, 1u);
    EXPECT_EQ(merged.fsEvents, 0u);
    EXPECT_EQ(merged.rateEvents[2].outcome, SharingOutcome::TrueSharing);
    EXPECT_EQ(merged.lines.size(), 2u);
}

TEST(DetectorStateMerge, MergedScanMatchesStreamingRepairTrigger)
{
    PipelineFixture f;
    detect::DetectorConfig cfg;
    cfg.sav = 19;
    cfg.rateCheckInterval = 100'000;

    // The false-sharing storm of test_detect's repair-trigger test.
    std::vector<pebs::PebsRecord> recs;
    for (int i = 0; i < 5000; ++i)
        recs.push_back(f.record(0, 0x1000000 + (i % 2) * 32,
                                1000 + 400ull * i));

    detect::Detector streaming(f.prog, f.space, f.space.renderProcMaps(),
                               f.timing, cfg);
    streaming.processAll(recs);
    const detect::DetectionReport serial = streaming.finish(1'700'000);

    for (std::size_t cut : {std::size_t(0), recs.size() / 3,
                            recs.size() / 2, recs.size()}) {
        DetectorState merged = digestSplit(f, recs, cut);
        const detect::RateScanState scan =
            detect::scanRateEvents(merged.rateEvents, cfg);
        EXPECT_EQ(scan.repairRequested, serial.repairRequested)
            << "cut " << cut;
        EXPECT_EQ(scan.repairTriggerCycle, serial.repairTriggerCycle)
            << "cut " << cut;
        const detect::DetectionReport rebuilt = detect::buildReport(
            f.ctx, cfg, merged, scan, 1'700'000);
        EXPECT_TRUE(detect::reportsIdentical(serial, rebuilt))
            << "cut " << cut;
    }
}

// ---------------------------------------------------------------------
// Sharded replay == serial replay, for every registered workload
// ---------------------------------------------------------------------

TEST(ParallelReplay, IdenticalToSerialForEveryWorkload)
{
    core::SweepRunner runner;
    const auto &all = workloads::allWorkloads();
    ASSERT_FALSE(all.empty());

    // Two configurations bracketing the interesting behaviours: the
    // paper default, and a permissive threshold that reports many lines.
    std::vector<detect::DetectorConfig> cfgs(2);
    cfgs[0].sav = 19;
    cfgs[1].sav = 19;
    cfgs[1].rateThreshold = 32.0;

    std::vector<std::string> failures(all.size());
    runner.parallelFor(all.size(), [&](std::size_t i) {
        const workloads::WorkloadDef &w = all[i];
        const auto trace = runner.capture(w, trace::CaptureOptions{});
        TraceReplayer env(*trace);
        if (!env.ok()) {
            failures[i] = w.info.name + ": " + env.error();
            return;
        }
        for (const detect::DetectorConfig &cfg : cfgs) {
            const detect::DetectionReport serial = env.replay(cfg);
            for (int shards : {2, 4, 7}) {
                ParallelReplayer::Options opt;
                opt.shards = shards;
                ParallelReplayer parallel(env, opt);
                if (!detect::reportsIdentical(serial,
                                              parallel.replay(cfg))) {
                    failures[i] = w.info.name + ": sharded report (" +
                                  std::to_string(shards) +
                                  " shards) differs from serial";
                    return;
                }
            }
        }
    });
    for (const std::string &failure : failures)
        EXPECT_TRUE(failure.empty()) << failure;
}

TEST(ParallelReplay, FileBackedCursorsIdenticalToSerialForEveryWorkload)
{
    // The streaming path: every workload written to a trace file, mmapped
    // back, and sharded over per-shard block cursors. The merged report
    // must stay field-identical to the serial in-memory replay — the
    // index-based shard split sees the same record boundaries whether
    // records come from a vector or from decoded blocks.
    core::SweepRunner runner;
    const auto &all = workloads::allWorkloads();
    ASSERT_FALSE(all.empty());

    detect::DetectorConfig cfg;
    cfg.sav = 19;

    std::vector<std::string> failures(all.size());
    runner.parallelFor(all.size(), [&](std::size_t i) {
        const workloads::WorkloadDef &w = all[i];
        const auto trace = runner.capture(w, trace::CaptureOptions{});
        const std::string path =
            (std::filesystem::temp_directory_path() /
             ("laser_filecursor_" + std::to_string(i) + ".ltrace"))
                .string();
        if (writeTraceFile(*trace, path) != TraceStatus::Ok) {
            failures[i] = w.info.name + ": cannot write trace file";
            return;
        }
        TraceFile file;
        if (file.open(path) != TraceStatus::Ok) {
            failures[i] = w.info.name + ": " + file.error();
            std::remove(path.c_str());
            return;
        }
        TraceReplayer mem_env(*trace);
        TraceReplayer file_env(file.meta(), file);
        if (!mem_env.ok() || !file_env.ok()) {
            failures[i] = w.info.name + ": replay environment failed";
            std::remove(path.c_str());
            return;
        }
        const detect::DetectionReport serial = mem_env.replay(cfg);
        for (int shards : {1, 3, 5}) {
            ParallelReplayer::Options opt;
            opt.shards = shards;
            ParallelReplayer parallel(file_env, opt);
            if (!detect::reportsIdentical(serial, parallel.replay(cfg))) {
                failures[i] = w.info.name + ": file-backed replay (" +
                              std::to_string(shards) +
                              " shards) differs from serial";
                break;
            }
        }
        std::remove(path.c_str());
    });
    for (const std::string &failure : failures)
        EXPECT_TRUE(failure.empty()) << failure;
}

TEST(ParallelReplay, DigestReusedAcrossConfigs)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    ASSERT_NE(kmeans, nullptr);
    const Trace trace = captureTrace(*kmeans);
    TraceReplayer env(trace);
    ASSERT_TRUE(env.ok());

    ParallelReplayer::Options opt;
    opt.shards = 4;
    ParallelReplayer parallel(env, opt);
    EXPECT_EQ(parallel.shards(), 4);

    // One digest serves arbitrary configurations; each must match its
    // serial counterpart.
    for (double threshold : {32.0, 1000.0, 64000.0}) {
        detect::DetectorConfig cfg;
        cfg.rateThreshold = threshold;
        cfg.sav = trace.meta.pebs.sav;
        EXPECT_TRUE(detect::reportsIdentical(env.replay(cfg),
                                             parallel.replay(cfg)))
            << "threshold " << threshold;
    }
}

TEST(ParallelReplay, SharedExternalPool)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    const Trace trace = captureTrace(*kmeans);
    TraceReplayer env(trace);
    ASSERT_TRUE(env.ok());

    util::ThreadPool pool(3);
    ParallelReplayer::Options opt;
    opt.shards = 5;
    opt.pool = &pool;
    ParallelReplayer parallel(env, opt);
    EXPECT_TRUE(detect::reportsIdentical(
        env.replayAtThreshold(1000.0),
        parallel.replay([&] {
            detect::DetectorConfig cfg;
            cfg.sav = trace.meta.pebs.sav;
            return cfg;
        }())));
}

// ---------------------------------------------------------------------
// Baseline-scheme capture/replay fidelity
// ---------------------------------------------------------------------

TEST(SchemeCapture, VTuneReplayMatchesLiveModel)
{
    const auto *w = workloads::findWorkload("histogram'");
    ASSERT_NE(w, nullptr);
    core::ExperimentRunner runner;
    const core::RunResult live = runner.run(*w, core::Scheme::VTune);

    const Trace captured =
        captureTrace(*w, CaptureOptions::forScheme("vtune"));
    EXPECT_EQ(captured.meta.scheme, "vtune");
    EXPECT_FALSE(captured.records.empty());
    EXPECT_EQ(captured.meta.runtimeCycles, live.runtimeCycles);

    TraceReplayer env(captured);
    ASSERT_TRUE(env.ok()) << env.error();
    const baselines::VTuneReport replayed = env.replayVTune();
    EXPECT_EQ(replayed.hitmEvents, live.vtune.hitmEvents);
    ASSERT_FALSE(replayed.lines.empty());
    ASSERT_EQ(replayed.lines.size(), live.vtune.lines.size());
    for (std::size_t i = 0; i < replayed.lines.size(); ++i) {
        EXPECT_EQ(replayed.lines[i].location,
                  live.vtune.lines[i].location);
        EXPECT_EQ(replayed.lines[i].records, live.vtune.lines[i].records);
        EXPECT_DOUBLE_EQ(replayed.lines[i].hitmRate,
                         live.vtune.lines[i].hitmRate);
    }

    // Offline re-thresholding: a permissive threshold reports at least
    // as many lines without rerunning anything.
    baselines::VTuneConfig loose = captured.meta.vtune;
    loose.rateThreshold = 1.0;
    EXPECT_GE(env.replayVTune(loose).lines.size(), replayed.lines.size());
}

TEST(SchemeCapture, SheriffReplayMatchesLiveModel)
{
    // The paper's sync-heavy Sheriff example (Figure 14): tens of
    // thousands of sync commits give the cost model real work.
    const auto *w = workloads::findWorkload("water_nsquared");
    ASSERT_NE(w, nullptr);
    ASSERT_NE(w->info.sheriff, workloads::SheriffCompat::Crash);
    core::ExperimentRunner runner;
    const core::RunResult live =
        runner.run(*w, core::Scheme::SheriffProtect);

    const Trace captured =
        captureTrace(*w, CaptureOptions::forScheme("sheriff-protect"));
    EXPECT_TRUE(captured.meta.machine.threadsAsProcesses);
    EXPECT_FALSE(captured.meta.sheriff.detectMode);
    EXPECT_EQ(captured.meta.runtimeCycles, live.runtimeCycles);

    TraceReplayer env(captured);
    ASSERT_TRUE(env.ok()) << env.error();
    const SheriffReplay replay = env.replaySheriff();
    EXPECT_GT(replay.report.syncOps, 0u);
    EXPECT_EQ(replay.report.syncOps, live.sheriff.syncOps);
    EXPECT_EQ(replay.report.dirtyPagesCommitted,
              live.sheriff.dirtyPagesCommitted);
    EXPECT_EQ(replay.report.chargedCycles, live.sheriff.chargedCycles);
    // At the capture config, the runtime estimate is exact.
    EXPECT_EQ(replay.estimatedRuntimeCycles, captured.meta.runtimeCycles);

    // Re-tuning commit costs offline moves the estimate additively
    // (commit cycles spread evenly over the cores).
    baselines::SheriffConfig pricier = captured.meta.sheriff;
    pricier.perDirtyPageCost *= 2;
    const SheriffReplay re = env.replaySheriff(pricier);
    EXPECT_GT(re.report.chargedCycles, replay.report.chargedCycles);
    const std::uint64_t cores = captured.meta.machine.numCores;
    EXPECT_EQ(re.estimatedRuntimeCycles - replay.estimatedRuntimeCycles,
              re.report.chargedCycles / cores -
                  replay.report.chargedCycles / cores);
}

TEST(SchemeCapture, RoundTripsThroughFileFormat)
{
    const auto *w = workloads::findWorkload("kmeans");
    for (const char *scheme :
         {"native", "vtune", "sheriff-detect", "sheriff-protect"}) {
        const Trace captured =
            captureTrace(*w, CaptureOptions::forScheme(scheme));
        TraceWriter writer(captured.meta);
        writer.appendAll(captured.records);
        TraceReader reader;
        ASSERT_EQ(reader.parse(writer.finalize()), TraceStatus::Ok)
            << scheme << ": " << reader.error();
        EXPECT_EQ(reader.trace().meta.scheme, scheme);
        EXPECT_EQ(reader.trace().records.size(), captured.records.size())
            << scheme;
        EXPECT_EQ(configHash(reader.trace().meta),
                  configHash(captured.meta))
            << scheme;
    }
}

} // namespace
} // namespace laser::trace
