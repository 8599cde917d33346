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
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sink.h"
#include "core/experiment.h"
#include "core/sweep_runner.h"
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

    DetectorPipeline streaming(f.ctx, cfg);
    analysis::drain(recs, streaming);
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

/** @p trace encoded with @p block_records-record blocks and opened. */
std::unique_ptr<TraceFile>
openTrace(const Trace &trace,
          std::size_t block_records = columnar::kDefaultBlockRecords)
{
    TraceWriter writer(trace.meta, block_records);
    writer.appendAll(trace.records);
    auto file = std::make_unique<TraceFile>();
    EXPECT_EQ(file->openBytes(writer.finalize()), TraceStatus::Ok)
        << file->error();
    return file;
}

/**
 * The non-decoding reference: the live path's DetectorPipeline over the
 * captured records (core::ExperimentRunner's analysis), in @p env's
 * detector environment.
 */
detect::DetectionReport
directReport(const TraceReplayer &env, const Trace &captured,
             const detect::DetectorConfig &cfg)
{
    DetectorPipeline pipeline(env.context(), cfg);
    analysis::drain(captured.records, pipeline);
    return pipeline.finish(captured.meta.runtimeCycles);
}

TEST(ParallelReplay, FileBackedCursorsIdenticalToSerialForEveryWorkload)
{
    // Every workload written to a trace file, mmapped back, and
    // replayed sharded over per-shard block cursors. Each report must
    // stay field-identical to the live pipeline over the captured
    // records, as must a streaming pass over the file's decoded
    // records: the index-based shard split sees the same record
    // boundaries whether records come from a vector or from decoded
    // blocks.
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
        const Trace trace = captureTrace(w);
        const std::string path =
            (std::filesystem::temp_directory_path() /
             ("laser_filecursor_" + std::to_string(i) + ".ltrace"))
                .string();
        if (writeTraceFile(trace, path) != TraceStatus::Ok) {
            failures[i] = w.info.name + ": cannot write trace file";
            return;
        }
        TraceFile file;
        const TraceStatus status = file.open(path);
        std::remove(path.c_str()); // the mapping outlives the name
        if (status != TraceStatus::Ok) {
            failures[i] = w.info.name + ": " + file.error();
            return;
        }
        TraceReplayer env(file.meta(), file);
        if (!env.ok()) {
            failures[i] = w.info.name + ": " + env.error();
            return;
        }
        Trace decoded;
        if (file.readAll(&decoded) != TraceStatus::Ok) {
            failures[i] = w.info.name + ": cannot decode trace file";
            return;
        }
        for (const detect::DetectorConfig &cfg : cfgs) {
            const detect::DetectionReport direct =
                directReport(env, trace, cfg);
            if (!detect::reportsIdentical(
                    direct, directReport(env, decoded, cfg))) {
                failures[i] = w.info.name + ": decoded records report "
                                            "differently from captured";
                return;
            }
            for (int shards : {1, 2, 3, 4, 5, 7}) {
                ParallelReplayer::Options opt;
                opt.shards = shards;
                ParallelReplayer parallel(env, opt);
                if (!detect::reportsIdentical(direct,
                                              parallel.replay(cfg))) {
                    failures[i] = w.info.name + ": file-backed replay (" +
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

TEST(ParallelReplay, DigestReusedAcrossConfigs)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    ASSERT_NE(kmeans, nullptr);
    const Trace trace = captureTrace(*kmeans);
    const auto file = openTrace(trace);
    TraceReplayer env(file->meta(), *file);
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
        EXPECT_TRUE(detect::reportsIdentical(directReport(env, trace, cfg),
                                             parallel.replay(cfg)))
            << "threshold " << threshold;
    }
}

TEST(ParallelReplay, SharedExternalPool)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    const Trace trace = captureTrace(*kmeans);
    const auto file = openTrace(trace);
    TraceReplayer env(file->meta(), *file);
    ASSERT_TRUE(env.ok());

    util::ThreadPool pool(3);
    ParallelReplayer::Options opt;
    opt.shards = 5;
    opt.pool = &pool;
    ParallelReplayer parallel(env, opt);
    detect::DetectorConfig cfg;
    cfg.sav = trace.meta.pebs.sav;
    EXPECT_TRUE(detect::reportsIdentical(directReport(env, trace, cfg),
                                         parallel.replay(cfg)));
}

TEST(ParallelReplay, NonDefaultRateIntervalMatchesSerial)
{
    // A rate-check interval other than the default one the replayer
    // prepares for: replay() must still reproduce the streaming
    // detector's report (repair trigger included).
    for (const char *name : {"histogram'", "linear_regression"}) {
        const auto *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        const Trace trace = captureTrace(*w);
        const auto file = openTrace(trace);
        TraceReplayer env(file->meta(), *file);
        ASSERT_TRUE(env.ok()) << name;
        ParallelReplayer::Options opt;
        opt.shards = 3;
        ParallelReplayer parallel(env, opt);
        for (double threshold : {32.0, 1000.0}) {
            detect::DetectorConfig cfg;
            cfg.rateThreshold = threshold;
            cfg.sav = trace.meta.pebs.sav;
            cfg.rateCheckInterval = 100'000;
            EXPECT_TRUE(detect::reportsIdentical(
                directReport(env, trace, cfg), parallel.replay(cfg)))
                << name << " threshold " << threshold;
        }
    }
}

TEST(ParallelReplay, OneShardPerRecordWithoutPool)
{
    // The transient pool is capped at the hardware concurrency however
    // many shards there are; the record-index split is unchanged.
    const auto *w = workloads::findWorkload("histogram'");
    ASSERT_NE(w, nullptr);
    const Trace trace = captureTrace(*w);
    const auto file = openTrace(trace);
    TraceReplayer env(file->meta(), *file);
    ASSERT_TRUE(env.ok());
    ASSERT_GT(trace.records.size(), 1u);

    ParallelReplayer::Options opt;
    opt.shards = static_cast<int>(trace.records.size());
    ParallelReplayer parallel(env, opt);
    EXPECT_EQ(parallel.shards(), opt.shards);
    detect::DetectorConfig cfg;
    cfg.sav = trace.meta.pebs.sav;
    EXPECT_TRUE(detect::reportsIdentical(directReport(env, trace, cfg),
                                         parallel.replay(cfg)));
}

TEST(ParallelReplay, EmptyTraceUsesOneShard)
{
    // Options::shards clamps to [1, record count] for empty traces too.
    const auto *w = workloads::findWorkload("histogram");
    ASSERT_NE(w, nullptr);
    const Trace trace = captureTrace(*w);
    ASSERT_TRUE(trace.records.empty());
    const auto file = openTrace(trace);
    TraceReplayer env(file->meta(), *file);
    ASSERT_TRUE(env.ok());

    ParallelReplayer::Options opt;
    opt.shards = 4;
    ParallelReplayer parallel(env, opt);
    EXPECT_EQ(parallel.shards(), 1);
    detect::DetectorConfig cfg;
    cfg.sav = trace.meta.pebs.sav;
    EXPECT_TRUE(detect::reportsIdentical(directReport(env, trace, cfg),
                                         parallel.replay(cfg)));
}

TEST(ParallelReplay, ConcurrentReplayEnvironmentsMatchSerial)
{
    // Every capture's replay environment (a program-only workload
    // build, its address space and its detector context) is built at
    // once on a pool, as thresholdSweep's first phase builds them, and
    // each is digested there too. Every report must equal the serial
    // replayDetection's: building environments shares no mutable state.
    const auto &all = workloads::allWorkloads();
    std::vector<std::unique_ptr<TraceFile>> files(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        files[i] = openTrace(captureTrace(all[i]));

    util::ThreadPool pool(4);
    std::vector<std::unique_ptr<TraceReplayer>> envs(all.size());
    std::vector<detect::DetectionReport> reports(all.size());
    pool.parallelFor(all.size(), [&](std::size_t i) {
        envs[i] = std::make_unique<TraceReplayer>(files[i]->meta(),
                                                  *files[i]);
        if (!envs[i]->ok())
            throw std::runtime_error(envs[i]->error());
        ParallelReplayer::Options opt;
        opt.shards = 2;
        opt.pool = &pool;
        detect::DetectorConfig cfg;
        cfg.sav = files[i]->meta().pebs.sav;
        reports[i] = ParallelReplayer(*envs[i], opt).replay(cfg);
    });
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_TRUE(detect::reportsIdentical(replayDetection(*files[i], 1),
                                             reports[i]))
            << all[i].info.name;
}

// ---------------------------------------------------------------------
// Column digest (TraceFile cursor -> onColumns) == record digest
// ---------------------------------------------------------------------

/** "" when two digests are equal, else the first differing field. */
std::string
stateDiff(const DetectorState &want, const DetectorState &got)
{
    const auto field = [](const std::string &name, std::uint64_t a,
                          std::uint64_t b) {
        return a == b ? std::string()
                      : name + " " + std::to_string(a) +
                            " != " + std::to_string(b);
    };
    for (const std::string &d : {
             field("totalRecords", want.totalRecords, got.totalRecords),
             field("droppedPc", want.droppedPc, got.droppedPc),
             field("droppedStack", want.droppedStack, got.droppedStack),
             field("tsEvents", want.tsEvents, got.tsEvents),
             field("fsEvents", want.fsEvents, got.fsEvents),
             field("pcStats.size", want.pcStats.size(),
                   got.pcStats.size()),
             field("lines.size", want.lines.size(), got.lines.size()),
             field("rateEvents.size", want.rateEvents.size(),
                   got.rateEvents.size()),
         })
        if (!d.empty())
            return d;
    for (std::size_t i = 0; i < want.pcStats.size(); ++i) {
        const DetectorState::PcStats &a = want.pcStats[i];
        const DetectorState::PcStats &b = got.pcStats[i];
        if (a.records != b.records || a.ts != b.ts || a.fs != b.fs)
            return "pcStats[" + std::to_string(i) + "]";
    }
    std::string line_diff;
    want.lines.forEach([&](std::uint64_t line,
                           const DetectorState::LineState &a) {
        if (!line_diff.empty())
            return;
        const DetectorState::LineState *b = got.lines.find(line);
        if (b == nullptr)
            line_diff = "line " + std::to_string(line) + " missing";
        else if (a.lastMask != b->lastMask ||
                 a.lastWrite != b->lastWrite ||
                 a.firstMask != b->firstMask ||
                 a.firstWrite != b->firstWrite ||
                 a.firstPc != b->firstPc || a.firstEvent != b->firstEvent)
            line_diff = "line " + std::to_string(line);
    });
    if (!line_diff.empty())
        return line_diff;
    for (std::size_t i = 0; i < want.rateEvents.size(); ++i) {
        if (want.rateEvents[i].cycle != got.rateEvents[i].cycle ||
                want.rateEvents[i].outcome != got.rateEvents[i].outcome)
            return "rateEvents[" + std::to_string(i) + "]";
    }
    return {};
}

/** Shard digest of @p records, one onRecord() call each. */
DetectorState
digestRecords(const detect::DetectorContext &ctx,
              const std::vector<pebs::PebsRecord> &records)
{
    DetectorPipeline pipeline(ctx, {}, DetectorPipeline::Mode::Shard);
    for (const pebs::PebsRecord &rec : records)
        pipeline.onRecord(rec);
    return pipeline.takeState();
}

TEST(DetectorStateMerge, GrowingReceiverMatchesSerialDigest)
{
    // Shard A touches lines 0..2999 in ascending order, shard B lines
    // 1500..4499 in descending order: half of B's lines are A's, and the
    // 1500 new ones push A's table past half full while mergeFrom walks
    // B's table, so the receiver rehashes mid-merge.
    PipelineFixture f;
    constexpr std::uint64_t kLines = 3000;
    constexpr std::uint64_t kBase = 0x1000000;
    std::vector<pebs::PebsRecord> recs;
    std::uint64_t cycle = 100;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t l = 0; l < kLines; ++l)
            recs.push_back(f.record(static_cast<std::uint32_t>(
                                        (l + pass) % 2),
                                    kBase + 64 * l + 8 * ((l + pass) % 8),
                                    cycle += 7));
    }
    const std::size_t cut = recs.size();
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t l = kLines + kLines / 2; l-- > kLines / 2;)
            recs.push_back(f.record(static_cast<std::uint32_t>(
                                        (l / 3 + pass) % 2),
                                    kBase + 64 * l + 8 * ((l + 3) % 8),
                                    cycle += 5));
    }

    const DetectorState serial = digestRecords(f.ctx, recs);
    DetectorState merged = digestRecords(
        f.ctx, std::vector<pebs::PebsRecord>(recs.begin(),
                                              recs.begin() + cut));
    merged.mergeFrom(digestRecords(
        f.ctx,
        std::vector<pebs::PebsRecord>(recs.begin() + cut, recs.end())));

    EXPECT_EQ(stateDiff(serial, merged), "");
    EXPECT_EQ(merged.lines.size(), kLines + kLines / 2);
    EXPECT_EQ(merged.droppedStack, 0u);
    // Both outcomes occur, at the boundary and inside each shard.
    EXPECT_GT(merged.tsEvents, 0u);
    EXPECT_GT(merged.fsEvents, 0u);
}

/** Small blocks, so record and cycle windows end inside blocks. */
constexpr std::size_t kSmallBlock = 64;

TEST(ColumnDigest, CursorDrainMatchesRecordFeedForEveryWorkload)
{
    core::SweepRunner runner;
    const auto &all = workloads::allWorkloads();
    ASSERT_FALSE(all.empty());

    std::vector<std::string> failures(all.size());
    runner.parallelFor(all.size(), [&](std::size_t i) {
        const workloads::WorkloadDef &w = all[i];
        const Trace trace = captureTrace(w);
        const auto file = openTrace(trace, kSmallBlock);
        TraceReplayer env(file->meta(), *file);
        if (!env.ok()) {
            failures[i] = w.info.name + ": " + env.error();
            return;
        }
        const std::vector<pebs::PebsRecord> &recs = trace.records;
        const std::size_t n = recs.size();

        // Whole file, then a record window and a cycle window whose
        // ends fall inside blocks.
        const std::size_t first = n / 3 + 1;
        const std::size_t end = 2 * n / 3 + 1;
        const std::uint64_t begin_cycle = n ? recs[n / 4].cycle : 0;
        const std::uint64_t end_cycle = n ? recs[3 * n / 4].cycle : 0;
        struct Window
        {
            std::string what;
            std::unique_ptr<RecordCursor> cursor;
            std::vector<pebs::PebsRecord> records;
        };
        std::vector<Window> windows;
        windows.push_back({"whole file", file->cursor(), recs});
        if (end <= n) {
            windows.push_back(
                {"records [" + std::to_string(first) + ", " +
                     std::to_string(end) + ")",
                 file->cursorForRecords(first, end),
                 {recs.begin() + static_cast<std::ptrdiff_t>(first),
                  recs.begin() + static_cast<std::ptrdiff_t>(end)}});
        }
        Window cycles{"cycles [" + std::to_string(begin_cycle) + ", " +
                          std::to_string(end_cycle) + ")",
                      file->cursorForCycles(begin_cycle, end_cycle),
                      {}};
        for (const pebs::PebsRecord &rec : recs)
            if (rec.cycle >= begin_cycle && rec.cycle < end_cycle)
                cycles.records.push_back(rec);
        windows.push_back(std::move(cycles));

        for (Window &win : windows) {
            DetectorPipeline pipeline(env.context(), {},
                                      DetectorPipeline::Mode::Shard);
            const std::uint64_t delivered = win.cursor->drain(pipeline);
            const std::string diff =
                stateDiff(digestRecords(env.context(), win.records),
                          pipeline.takeState());
            if (win.cursor->status() != TraceStatus::Ok ||
                    delivered != win.records.size() || !diff.empty()) {
                failures[i] = w.info.name + ", " + win.what + ": " +
                              traceStatusName(win.cursor->status()) +
                              ", " + std::to_string(delivered) + " of " +
                              std::to_string(win.records.size()) +
                              " records, " + diff;
                return;
            }
        }
    });
    for (const std::string &failure : failures)
        EXPECT_TRUE(failure.empty()) << failure;
}

TEST(ColumnDigest, CorruptBlockStopsDrainWhereNextStops)
{
    const auto *w = workloads::findWorkload("histogram'");
    ASSERT_NE(w, nullptr);
    const Trace trace = captureTrace(*w);
    TraceWriter writer(trace.meta, kSmallBlock);
    writer.appendAll(trace.records);
    std::vector<std::uint8_t> image = writer.finalize();
    TraceFile probe;
    ASSERT_EQ(probe.openBytes(image), TraceStatus::Ok);
    TraceReplayer env(probe.meta(), probe);
    ASSERT_TRUE(env.ok());

    // Flip the first byte of a middle block: open() still succeeds (it
    // verifies only header, meta and index); the block's checksum fails
    // when a cursor reaches it.
    const columnar::BlockIndex &index = probe.index();
    ASSERT_GE(index.blocks.size(), 3u);
    const columnar::BlockInfo bad = index.blocks[index.blocks.size() / 2];
    image[kTraceHeaderSize + index.blobOffset + bad.blobOffset] ^= 0x20;
    TraceFile file;
    ASSERT_EQ(file.openBytes(std::move(image)), TraceStatus::Ok);

    // Whole file, and a window starting mid-block before the bad block.
    for (const std::uint64_t first : {std::uint64_t{0}, kSmallBlock / 2}) {
        DetectorPipeline by_record(env.context(), {},
                                   DetectorPipeline::Mode::Shard);
        const std::unique_ptr<RecordCursor> next_cur =
            file.cursorForRecords(first, file.recordCount());
        std::uint64_t nexted = 0;
        pebs::PebsRecord rec;
        while (next_cur->next(&rec)) {
            by_record.onRecord(rec);
            ++nexted;
        }

        DetectorPipeline by_column(env.context(), {},
                                   DetectorPipeline::Mode::Shard);
        const std::unique_ptr<RecordCursor> drain_cur =
            file.cursorForRecords(first, file.recordCount());
        const std::uint64_t drained = drain_cur->drain(by_column);

        EXPECT_EQ(next_cur->status(), TraceStatus::Corrupt) << first;
        EXPECT_EQ(drain_cur->status(), next_cur->status()) << first;
        EXPECT_EQ(nexted, bad.firstRecord - first) << first;
        EXPECT_EQ(drained, nexted) << first;
        EXPECT_EQ(stateDiff(by_record.takeState(), by_column.takeState()),
                  "")
            << first;
    }
}

// ---------------------------------------------------------------------
// Rate scan: the offline scan == RateScanState::step per event
// ---------------------------------------------------------------------

/** The per-event reference the offline scan must reproduce. */
detect::RateScanState
stepLoop(const std::vector<detect::RateEvent> &events,
         const detect::DetectorConfig &cfg)
{
    detect::RateScanState scan;
    for (const detect::RateEvent &ev : events)
        scan.step(ev.cycle, ev.outcome, cfg);
    return scan;
}

/** "" when equal, else the first differing field. */
std::string
scanDiff(const detect::RateScanState &want,
         const detect::RateScanState &got)
{
    const auto field = [](const char *name, std::uint64_t a,
                          std::uint64_t b) {
        return a == b ? std::string()
                      : std::string(name) + " " + std::to_string(a) +
                            " != " + std::to_string(b);
    };
    for (const std::string &d : {
             field("windowStart", want.windowStart, got.windowStart),
             field("windowRecords", want.windowRecords,
                   got.windowRecords),
             field("windowFs", want.windowFs, got.windowFs),
             field("windowTs", want.windowTs, got.windowTs),
             field("repairRequested", want.repairRequested,
                   got.repairRequested),
             field("repairTriggerCycle", want.repairTriggerCycle,
                   got.repairTriggerCycle),
         })
        if (!d.empty())
            return d;
    return {};
}

TEST(RateScan, WindowScanMatchesStepLoop)
{
    core::SweepRunner runner;
    const auto &all = workloads::allWorkloads();
    ASSERT_FALSE(all.empty());
    const std::vector<std::uint32_t> savs = {1, 19};

    // Every workload at SAV 1 and 19, digested with 3 shards.
    const std::size_t n = all.size() * savs.size();
    std::vector<std::shared_ptr<const TraceFile>> traces(n);
    std::vector<std::unique_ptr<TraceReplayer>> envs(n);
    std::vector<std::unique_ptr<ParallelReplayer>> digests(n);
    runner.parallelFor(n, [&](std::size_t i) {
        CaptureOptions opt;
        opt.sav = savs[i % savs.size()];
        traces[i] = runner.captureFile(all[i / savs.size()], opt);
        envs[i] = std::make_unique<TraceReplayer>(traces[i]->meta(),
                                                  *traces[i]);
        if (!envs[i]->ok())
            throw std::runtime_error(envs[i]->error());
        ParallelReplayer::Options popt;
        popt.shards = 3;
        digests[i] = std::make_unique<ParallelReplayer>(*envs[i], popt);
    });

    std::uint64_t cases = 0;
    std::uint64_t triggered = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < n; ++i) {
        const std::vector<detect::RateEvent> &events =
            digests[i]->state().rateEvents;
        for (std::uint64_t interval :
             {0ull, 1ull, 1000ull, 100'000ull, 150'000ull, 1'000'000ull})
            for (double fs_rate : {0.0, 500.0, 3500.0, 1e9})
                for (double hitm_rate : {0.0, 4000.0, 16000.0, 1e12})
                    for (std::uint32_t sav : savs) {
                        detect::DetectorConfig cfg;
                        cfg.rateCheckInterval = interval;
                        cfg.repairFsRateThreshold = fs_rate;
                        cfg.repairHitmRateThreshold = hitm_rate;
                        cfg.sav = sav;
                        ++cases;

                        const detect::RateScanState want =
                            stepLoop(events, cfg);
                        const detect::RateScanState got =
                            detect::scanRateEvents(events, cfg);
                        const detect::DetectionReport report =
                            digests[i]->replay(cfg);
                        triggered += want.repairRequested;

                        detect::RateScanState replayed = want;
                        replayed.repairRequested = report.repairRequested;
                        replayed.repairTriggerCycle =
                            report.repairTriggerCycle;
                        std::string diff = scanDiff(want, got);
                        if (diff.empty())
                            diff = scanDiff(want, replayed);
                        if (diff.empty())
                            continue;
                        ++mismatches;
                        if (failures.size() < 10)
                            failures.push_back(
                                all[i / savs.size()].info.name +
                                " sav " +
                                std::to_string(traces[i]->meta().pebs.sav) +
                                " interval " + std::to_string(interval) +
                                " fs " + std::to_string(fs_rate) +
                                " hitm " + std::to_string(hitm_rate) +
                                " cfg.sav " + std::to_string(sav) +
                                ": " + diff);
                    }
    }
    EXPECT_EQ(cases, n * 6 * 4 * 4 * 2);
    EXPECT_GT(triggered, 0u);
    EXPECT_LT(triggered, cases);
    EXPECT_EQ(mismatches, 0u);
    for (const std::string &failure : failures)
        ADD_FAILURE() << failure;
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

    const auto file = openTrace(captured);
    TraceReplayer env(file->meta(), *file);
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

TEST(SchemeCapture, SheriffOfflineMatchesLiveModel)
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

    const auto file = openTrace(captured);
    TraceReplayer env(file->meta(), *file);
    ASSERT_TRUE(env.ok()) << env.error();
    const baselines::SheriffReport replay = env.replaySheriff();
    EXPECT_GT(replay.syncOps, 0u);
    EXPECT_EQ(replay.syncOps, live.sheriff.syncOps);
    EXPECT_EQ(replay.dirtyPagesCommitted, live.sheriff.dirtyPagesCommitted);
    EXPECT_EQ(replay.chargedCycles, live.sheriff.chargedCycles);
    EXPECT_EQ(file->meta().runtimeCycles, live.runtimeCycles);
}

TEST(SchemeCapture, RoundTripsThroughFileFormat)
{
    const auto *w = workloads::findWorkload("kmeans");
    for (const char *scheme :
         {"native", "vtune", "sheriff-detect", "sheriff-protect"}) {
        const Trace captured =
            captureTrace(*w, CaptureOptions::forScheme(scheme));
        const auto file = openTrace(captured);
        EXPECT_TRUE(file->payloadChecksumOk()) << scheme;
        Trace decoded;
        ASSERT_EQ(file->readAll(&decoded), TraceStatus::Ok) << scheme;
        EXPECT_EQ(decoded.meta.scheme, scheme);
        EXPECT_EQ(decoded.records.size(), captured.records.size())
            << scheme;
        EXPECT_EQ(configHash(decoded.meta), configHash(captured.meta))
            << scheme;
    }
}

} // namespace
} // namespace laser::trace
