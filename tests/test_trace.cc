/**
 * @file
 * Tests for the trace capture/replay subsystem and the parallel sweep
 * runner: byte-exact round-trips through trace::TraceFile, strict
 * rejection of malformed files, replay fidelity against the in-process
 * pipeline, and cache-hit behaviour (a repeated sweep performs zero
 * machine runs).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analysis/sink.h"
#include "core/accuracy.h"
#include "core/experiment.h"
#include "core/sweep_runner.h"
#include "detect/pipeline.h"
#include "trace/capture.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/trace_file.h"

namespace laser::trace {
namespace {

namespace fs = std::filesystem;

/** Synthetic trace exercising negative deltas and large values. */
Trace
syntheticTrace()
{
    Trace t;
    t.meta.workload = "kmeans";
    t.meta.scheme = "laser-detect";
    t.meta.build.heapPerturbation = 48;
    t.meta.pebs.sav = 19;
    t.meta.stats.cycles = 123456;
    t.meta.stats.hitmLoads = 77;
    t.meta.stats.threadCycles = {100, 200, 300, 400};
    t.meta.stats.threadInstructions = {10, 20, 30, 40};
    t.meta.runtimeCycles = 123456;
    t.meta.mapsText = "00400000-00410000 r-xp 00000000 00:00 1  /app/kmeans\n";

    pebs::PebsRecord r;
    r.pc = 0x400100;
    r.dataAddr = 0x1000040;
    r.core = 2;
    r.cycle = 5000;
    t.records.push_back(r);
    r.pc = 0x400080;                      // negative pc delta
    r.dataAddr = 0xffff'8000'0000'0100ULL; // huge positive addr delta
    r.core = 0;
    r.cycle = 5000;                       // equal cycles are allowed
    t.records.push_back(r);
    r.pc = 0x400084;
    r.dataAddr = 0x70000010;              // negative addr delta
    r.core = 3;
    r.cycle = 90000;
    t.records.push_back(r);
    return t;
}

std::vector<std::uint8_t>
encode(const Trace &t)
{
    TraceWriter writer(t.meta);
    writer.appendAll(t.records);
    return writer.finalize();
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** @p bytes opened as a TraceFile (must open Ok). */
std::unique_ptr<TraceFile>
openImage(std::vector<std::uint8_t> bytes)
{
    auto file = std::make_unique<TraceFile>();
    EXPECT_EQ(file->openBytes(std::move(bytes)), TraceStatus::Ok)
        << file->error();
    return file;
}

/** Status of opening @p bytes and then decoding every record block. */
TraceStatus
readImage(std::vector<std::uint8_t> bytes)
{
    TraceFile file;
    const TraceStatus status = file.openBytes(std::move(bytes));
    if (status != TraceStatus::Ok)
        return status;
    Trace decoded;
    return file.readAll(&decoded);
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.meta.workload, b.meta.workload);
    EXPECT_EQ(a.meta.scheme, b.meta.scheme);
    EXPECT_EQ(a.meta.build.heapPerturbation, b.meta.build.heapPerturbation);
    EXPECT_EQ(a.meta.build.numThreads, b.meta.build.numThreads);
    EXPECT_EQ(a.meta.build.inputSeed, b.meta.build.inputSeed);
    EXPECT_EQ(a.meta.build.scale, b.meta.build.scale);
    EXPECT_EQ(a.meta.machine.seed, b.meta.machine.seed);
    EXPECT_EQ(a.meta.pebs.sav, b.meta.pebs.sav);
    EXPECT_EQ(a.meta.stats.cycles, b.meta.stats.cycles);
    EXPECT_EQ(a.meta.stats.hitmLoads, b.meta.stats.hitmLoads);
    EXPECT_EQ(a.meta.stats.threadCycles, b.meta.stats.threadCycles);
    EXPECT_EQ(a.meta.stats.threadInstructions,
              b.meta.stats.threadInstructions);
    EXPECT_EQ(a.meta.runtimeCycles, b.meta.runtimeCycles);
    EXPECT_EQ(a.meta.mapsText, b.meta.mapsText);
    EXPECT_EQ(configHash(a.meta), configHash(b.meta));
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].pc, b.records[i].pc) << i;
        EXPECT_EQ(a.records[i].dataAddr, b.records[i].dataAddr) << i;
        EXPECT_EQ(a.records[i].core, b.records[i].core) << i;
        EXPECT_EQ(a.records[i].cycle, b.records[i].cycle) << i;
    }
}

TEST(TraceFormat, RoundTripByteExact)
{
    const Trace original = syntheticTrace();
    const std::vector<std::uint8_t> bytes = encode(original);

    const auto file = openImage(bytes);
    EXPECT_TRUE(file->payloadChecksumOk());
    Trace decoded;
    ASSERT_EQ(file->readAll(&decoded), TraceStatus::Ok);
    expectTracesEqual(original, decoded);

    // Re-encoding the decoded trace reproduces the identical file image.
    EXPECT_EQ(encode(decoded), bytes);
}

TEST(TraceFormat, CapturedRunRoundTripsThroughFile)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    ASSERT_NE(kmeans, nullptr);
    const Trace captured = captureTrace(*kmeans);
    EXPECT_FALSE(captured.records.empty());
    EXPECT_GT(captured.meta.runtimeCycles, 0u);
    EXPECT_FALSE(captured.meta.mapsText.empty());

    const std::string path =
        (fs::temp_directory_path() / "laser_test_roundtrip.ltrace")
            .string();
    ASSERT_EQ(writeTraceFile(captured, path), TraceStatus::Ok);

    TraceFile file;
    ASSERT_EQ(file.open(path), TraceStatus::Ok) << file.error();
    EXPECT_TRUE(file.payloadChecksumOk());
    Trace decoded;
    ASSERT_EQ(file.readAll(&decoded), TraceStatus::Ok);
    expectTracesEqual(captured, decoded);
    EXPECT_EQ(encode(decoded), encode(captured));
    std::remove(path.c_str());
}

TEST(TraceFormat, RejectsBadMagic)
{
    std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    bytes[0] = 'X';
    TraceFile file;
    EXPECT_EQ(file.openBytes(bytes), TraceStatus::BadMagic);
    EXPECT_FALSE(file.error().empty());
}

TEST(TraceFormat, RejectsVersionMismatch)
{
    // Only kTraceVersion is read: an older or a newer version is
    // BadVersion.
    const std::vector<std::uint8_t> pristine = encode(syntheticTrace());
    for (const std::uint32_t version :
         {kTraceVersion - 1, kTraceVersion + 1}) {
        std::vector<std::uint8_t> bytes = pristine;
        bytes[4] = static_cast<std::uint8_t>(version);
        TraceFile file;
        EXPECT_EQ(file.openBytes(bytes), TraceStatus::BadVersion)
            << "v" << int(version);
    }
}

TEST(TraceFormat, RejectsForeignEndianness)
{
    std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    std::swap(bytes[8], bytes[11]); // byte-swapped endianness marker
    TraceFile file;
    EXPECT_EQ(file.openBytes(bytes), TraceStatus::BadEndianness);
}

TEST(TraceFormat, RejectsEveryTruncation)
{
    const std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    TraceFile file;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const TraceStatus status = file.openBytes(
            {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
        EXPECT_EQ(status, TraceStatus::Truncated)
            << "prefix of " << cut << " bytes parsed as "
            << traceStatusName(status);
    }
}

TEST(TraceFormat, RejectsPayloadCorruption)
{
    const std::vector<std::uint8_t> pristine = encode(syntheticTrace());
    // Flip one bit in every payload byte in turn: the meta, index or
    // block checksum covering it must catch each (at open, or when the
    // block decodes), and so must the whole-payload checksum.
    for (std::size_t i = 28; i + 8 < pristine.size(); i += 7) {
        std::vector<std::uint8_t> bytes = pristine;
        bytes[i] ^= 0x40;
        TraceFile file;
        TraceStatus status = file.openBytes(bytes);
        if (status == TraceStatus::Ok) {
            EXPECT_FALSE(file.payloadChecksumOk())
                << "flipped payload byte " << i;
            Trace decoded;
            status = file.readAll(&decoded);
        }
        EXPECT_EQ(status, TraceStatus::Corrupt)
            << "flipped payload byte " << i;
    }
    // Corrupting the trailer checksum itself leaves every record intact
    // but fails the whole-payload check (which laser_trace replay
    // rejects as corrupt).
    std::vector<std::uint8_t> bytes = pristine;
    bytes.back() ^= 0x01;
    EXPECT_FALSE(openImage(bytes)->payloadChecksumOk());
    EXPECT_EQ(readImage(bytes), TraceStatus::Ok);
    // Corrupting the stored config hash in the header fails the open.
    bytes = pristine;
    bytes[12] ^= 0x01;
    EXPECT_EQ(readImage(bytes), TraceStatus::Corrupt);
}

TEST(TraceFormat, RejectsNonMonotonicCycles)
{
    // Sharding splits streams into contiguous time windows, so the
    // canonical stream must be non-decreasing in cycle; a decreasing
    // step is a typed error, not a silently accepted stream.
    // `ends_low` makes the block's last cycle precede its first, which
    // the index check at open catches; `dips` regresses inside a block
    // whose first and last cycles are still ordered, which only the
    // block decode sees.
    Trace ends_low = syntheticTrace();
    ends_low.records[2].cycle = ends_low.records[1].cycle - 1;
    Trace dips = syntheticTrace();
    dips.records[1].cycle = dips.records[0].cycle - 1;
    TraceFile file;
    EXPECT_EQ(file.openBytes(encode(ends_low)), TraceStatus::NonMonotonic);
    EXPECT_NE(file.error().find("precedes"), std::string::npos)
        << file.error();
    ASSERT_EQ(file.openBytes(encode(dips)), TraceStatus::Ok);
    Trace decoded;
    EXPECT_EQ(file.readAll(&decoded), TraceStatus::NonMonotonic);

    // The writer refuses to persist such a stream in the first place
    // (finalize() still encodes it, so the reader paths above are
    // testable).
    TraceWriter writer(dips.meta);
    writer.appendAll(dips.records);
    EXPECT_FALSE(writer.monotonic());
    EXPECT_EQ(writer.writeFile(
                  (fs::temp_directory_path() / "laser_nonmono.ltrace")
                      .string()),
              TraceStatus::NonMonotonic);

    // Equal adjacent cycles (records[0] and records[1]) stay accepted.
    EXPECT_EQ(readImage(encode(syntheticTrace())), TraceStatus::Ok);
}

TEST(TraceFormat, RejectsTrailingGarbage)
{
    std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    bytes.push_back(0xAA);
    TraceFile file;
    EXPECT_EQ(file.openBytes(bytes), TraceStatus::Corrupt);
}

TEST(TraceFormat, ReportsIoErrorForMissingFile)
{
    TraceFile file;
    EXPECT_EQ(file.open("/nonexistent/laser.ltrace"), TraceStatus::IoError);
}

TEST(TraceFormat, ConfigHashDependsOnConfigOnly)
{
    Trace a = syntheticTrace();
    Trace b = syntheticTrace();
    b.meta.stats.cycles += 1;     // results do not affect the key
    b.meta.runtimeCycles += 1;
    EXPECT_EQ(configHash(a.meta), configHash(b.meta));
    b.meta.pebs.sav = 7;          // config does
    EXPECT_NE(configHash(a.meta), configHash(b.meta));
    Trace c = syntheticTrace();
    c.meta.machine.seed ^= 1;
    EXPECT_NE(configHash(a.meta), configHash(c.meta));
}

TEST(TraceFormat, RoundTripsProtocolAndGeometry)
{
    // Config tail: coherence protocol, line size and the
    // Dragon-specific costs survive a write/parse cycle.
    Trace t = syntheticTrace();
    t.meta.machine.protocol = sim::ProtocolKind::Dragon;
    t.meta.machine.geometry.lineBytes = 128;
    t.meta.machine.timing.dragonHitm = 123;
    t.meta.machine.timing.dragonUpdate = 45;

    const auto file = openImage(encode(t));
    const sim::MachineConfig &mc = file->meta().machine;
    EXPECT_EQ(mc.protocol, sim::ProtocolKind::Dragon);
    EXPECT_EQ(mc.geometry.lineBytes, 128u);
    EXPECT_EQ(mc.timing.dragonHitm, 123u);
    EXPECT_EQ(mc.timing.dragonUpdate, 45u);
}

TEST(TraceFormat, ConfigHashSeparatesProtocolsAndGeometries)
{
    // Different coherence fabrics and line sizes must never collide in
    // the trace cache: each axis has to move the config hash.
    const Trace base = syntheticTrace();
    Trace dragon = syntheticTrace();
    dragon.meta.machine.protocol = sim::ProtocolKind::Dragon;
    EXPECT_NE(configHash(base.meta), configHash(dragon.meta));

    Trace narrow = syntheticTrace();
    narrow.meta.machine.geometry.lineBytes = 32;
    EXPECT_NE(configHash(base.meta), configHash(narrow.meta));
    EXPECT_NE(configHash(dragon.meta), configHash(narrow.meta));

    Trace costs = syntheticTrace();
    costs.meta.machine.timing.dragonUpdate += 1;
    EXPECT_NE(configHash(base.meta), configHash(costs.meta));
}

TEST(TraceFormat, RejectsUnknownProtocol)
{
    // A protocol byte beyond the known enum range is a semantic error,
    // caught after the checksum passes (the writer encodes it happily).
    Trace t = syntheticTrace();
    t.meta.machine.protocol = static_cast<sim::ProtocolKind>(9);
    TraceFile file;
    EXPECT_EQ(file.openBytes(encode(t)), TraceStatus::Corrupt);
    EXPECT_NE(file.error().find("invalid coherence protocol"),
              std::string::npos)
        << file.error();
}

TEST(TraceFormat, RejectsInvalidLineSize)
{
    Trace t = syntheticTrace();
    t.meta.machine.geometry.lineBytes = 48; // not a power of two
    TraceFile file;
    EXPECT_EQ(file.openBytes(encode(t)), TraceStatus::Corrupt);
    EXPECT_NE(file.error().find("invalid cache line size"),
              std::string::npos)
        << file.error();
}

TEST(TraceFormat, CaptureRejectsInvalidLineSize)
{
    // The machine refuses the geometry up front: simulating 64-byte
    // lines under a 48-byte label would write an image the reader then
    // rejects as corrupt.
    const auto *w = workloads::findWorkload("histogram'");
    ASSERT_NE(w, nullptr);
    CaptureOptions opt;
    opt.geometry.lineBytes = 48;
    EXPECT_THROW(captureTrace(*w, opt), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Replay fidelity: record -> replay reproduces the in-process pipeline.
// ---------------------------------------------------------------------

/** @p t encoded and opened back as a trace file. */
std::unique_ptr<TraceFile>
roundTrip(const Trace &t)
{
    return openImage(encode(t));
}

TEST(TraceReplay, MatchesInProcessPipeline)
{
    // Every registered workload under every capturable scheme: capture
    // at the harness defaults, push through the on-disk format, and
    // replay through the scheme's offline analyzer; the result must
    // equal the experiment runner's for the same workload and scheme.
    core::ExperimentRunner runner;
    const double sheriff_small = runner.config().sheriffSmallScale;
    for (const workloads::WorkloadDef &w : workloads::allWorkloads()) {
        const std::string &name = w.info.name;

        {
            const core::RunResult live =
                runner.run(w, core::Scheme::LaserDetectOnly);
            const auto loaded = roundTrip(captureTrace(w));
            EXPECT_TRUE(detect::reportsIdentical(
                replayDetection(*loaded, 1), live.detection))
                << name;
            const sim::MachineStats &stats = loaded->meta().stats;
            EXPECT_EQ(stats.cycles, live.stats.cycles) << name;
            EXPECT_EQ(stats.instructions, live.stats.instructions) << name;
            EXPECT_EQ(stats.hitmTotal(), live.stats.hitmTotal()) << name;
        }

        {
            const core::RunResult live = runner.run(w, core::Scheme::VTune);
            const auto loaded = roundTrip(
                captureTrace(w, CaptureOptions::forScheme("vtune")));
            TraceReplayer replayer(loaded->meta(), *loaded);
            ASSERT_TRUE(replayer.ok()) << replayer.error();
            const baselines::VTuneReport replayed = replayer.replayVTune();
            EXPECT_EQ(replayed.hitmEvents, live.vtune.hitmEvents) << name;
            ASSERT_EQ(replayed.lines.size(), live.vtune.lines.size())
                << name;
            for (std::size_t i = 0; i < replayed.lines.size(); ++i) {
                EXPECT_EQ(replayed.lines[i].location,
                          live.vtune.lines[i].location)
                    << name << " line " << i;
                EXPECT_EQ(replayed.lines[i].records,
                          live.vtune.lines[i].records)
                    << name << " line " << i;
                EXPECT_DOUBLE_EQ(replayed.lines[i].hitmRate,
                                 live.vtune.lines[i].hitmRate)
                    << name << " line " << i;
            }
        }

        if (w.info.sheriff != workloads::SheriffCompat::Crash &&
            w.info.sheriff != workloads::SheriffCompat::Incompatible) {
            const double scale =
                w.info.sheriff == workloads::SheriffCompat::WorksSmallInput
                    ? sheriff_small
                    : 1.0;
            for (const core::Scheme scheme :
                 {core::Scheme::SheriffDetect,
                  core::Scheme::SheriffProtect}) {
                const core::RunResult live = runner.run(w, scheme);
                CaptureOptions opt =
                    CaptureOptions::forScheme(core::schemeName(scheme));
                opt.scale = scale;
                const auto loaded = roundTrip(captureTrace(w, opt));
                TraceReplayer replayer(loaded->meta(), *loaded);
                ASSERT_TRUE(replayer.ok()) << replayer.error();
                const baselines::SheriffReport replayed =
                    replayer.replaySheriff();
                EXPECT_EQ(replayed.syncOps, live.sheriff.syncOps)
                    << name << " " << core::schemeName(scheme);
                EXPECT_EQ(replayed.dirtyPagesCommitted,
                          live.sheriff.dirtyPagesCommitted)
                    << name << " " << core::schemeName(scheme);
                EXPECT_EQ(replayed.chargedCycles,
                          live.sheriff.chargedCycles)
                    << name << " " << core::schemeName(scheme);
                EXPECT_EQ(replayer.meta().runtimeCycles, live.runtimeCycles)
                    << name << " " << core::schemeName(scheme);
            }
        }

        {
            const core::RunResult live =
                runner.run(w, core::Scheme::Native);
            const auto loaded = roundTrip(
                captureTrace(w, CaptureOptions::forScheme("native")));
            EXPECT_EQ(loaded->recordCount(), 0u) << name;
            EXPECT_EQ(loaded->meta().runtimeCycles, live.runtimeCycles)
                << name;
        }
    }
}

TEST(TraceReplay, UnknownWorkloadFailsCleanly)
{
    Trace t = syntheticTrace();
    t.meta.workload = "no_such_workload";
    const auto file = roundTrip(t);
    TraceReplayer replayer(file->meta(), *file);
    EXPECT_FALSE(replayer.ok());
    EXPECT_NE(replayer.error().find("no_such_workload"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Sweep runner cache behaviour
// ---------------------------------------------------------------------

std::vector<const workloads::WorkloadDef *>
sweepDefs()
{
    return {workloads::findWorkload("kmeans"),
            workloads::findWorkload("linear_regression")};
}

TEST(SweepRunner, SecondSweepPerformsZeroMachineRuns)
{
    core::SweepRunner runner;
    const std::vector<double> thresholds = {500, 1000, 4000};

    const core::ThresholdSweepResult first =
        core::thresholdSweep(runner, sweepDefs(), thresholds);
    EXPECT_EQ(first.machineRuns, 2u);

    const core::ThresholdSweepResult second =
        core::thresholdSweep(runner, sweepDefs(), thresholds);
    EXPECT_EQ(second.machineRuns, 0u);
    EXPECT_GE(runner.stats().memoryCacheHits, 2u);

    ASSERT_EQ(first.rows.size(), second.rows.size());
    for (std::size_t i = 0; i < first.rows.size(); ++i) {
        EXPECT_EQ(first.rows[i].falseNegatives,
                  second.rows[i].falseNegatives);
        EXPECT_EQ(first.rows[i].falsePositives,
                  second.rows[i].falsePositives);
    }
}

TEST(SweepRunner, Fig09SweepMatchesGoldenAndSerialReplay)
{
    // Figure 9 over the whole corpus: the digest-once sweep must give
    // the recorded table and the rows a Streaming-mode detector gives
    // over each trace's decoded records at each threshold.
    const std::vector<double> thresholds = {32,   64,   128,  256,
                                            512,  1000, 2000, 4000,
                                            8000, 16000, 32000, 64000};
    const std::vector<int> golden_fn = {0, 0, 0, 0, 0, 0,
                                        3, 6, 7, 9, 9, 9};
    const std::vector<int> golden_fp = {350, 313, 157, 111, 64, 31,
                                        10,  4,   0,   0,   0,  0};
    std::vector<const workloads::WorkloadDef *> defs;
    for (const auto &w : workloads::allWorkloads())
        defs.push_back(&w);
    const CaptureOptions opt;

    core::SweepRunner runner;
    const core::ThresholdSweepResult sweep =
        core::thresholdSweep(runner, defs, thresholds, opt);
    ASSERT_EQ(sweep.rows.size(), thresholds.size());

    std::vector<int> serial_fn(thresholds.size(), 0);
    std::vector<int> serial_fp(thresholds.size(), 0);
    for (const workloads::WorkloadDef *def : defs) {
        const auto file = runner.captureFile(*def, opt);
        TraceReplayer env(file->meta(), *file);
        ASSERT_TRUE(env.ok()) << def->info.name;
        Trace decoded;
        ASSERT_EQ(file->readAll(&decoded), TraceStatus::Ok)
            << def->info.name;
        for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
            detect::DetectorConfig cfg;
            cfg.rateThreshold = thresholds[ti];
            cfg.sav = opt.sav;
            detect::DetectorPipeline pipeline(env.context(), cfg);
            analysis::drain(decoded.records, pipeline);
            const core::AccuracyResult acc = core::evaluateAccuracy(
                def->info, core::reportLocations(pipeline.finish(
                               decoded.meta.runtimeCycles)));
            serial_fn[ti] += acc.falseNegatives;
            serial_fp[ti] += acc.falsePositives;
        }
    }
    for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
        const core::ThresholdSweepRow &row = sweep.rows[ti];
        EXPECT_EQ(row.threshold, thresholds[ti]);
        EXPECT_EQ(row.falseNegatives, golden_fn[ti]) << thresholds[ti];
        EXPECT_EQ(row.falsePositives, golden_fp[ti]) << thresholds[ti];
        EXPECT_EQ(row.falseNegatives, serial_fn[ti]) << thresholds[ti];
        EXPECT_EQ(row.falsePositives, serial_fp[ti]) << thresholds[ti];
    }
}

TEST(SweepRunner, DiskCachePersistsAcrossRunners)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_cache_test";
    fs::remove_all(dir);
    const auto *kmeans = workloads::findWorkload("kmeans");
    CaptureOptions opt;

    {
        core::SweepRunner::Config cfg;
        cfg.cacheDir = dir.string();
        core::SweepRunner first(cfg);
        EXPECT_NE(first.captureFile(*kmeans, opt), nullptr);
        EXPECT_EQ(first.stats().machineRuns, 1u);
    }

    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    core::SweepRunner second(cfg);
    const auto file = second.captureFile(*kmeans, opt);
    EXPECT_EQ(second.stats().machineRuns, 0u);
    EXPECT_EQ(second.stats().diskCacheHits, 1u);
    EXPECT_EQ(file->meta().workload, "kmeans");
    EXPECT_GT(file->recordCount(), 0u);
    fs::remove_all(dir);
}

TEST(SweepRunner, ConcurrentRunnersShareOneDiskCache)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_concurrent_test";
    fs::remove_all(dir);
    const std::vector<const workloads::WorkloadDef *> defs = {
        workloads::findWorkload("kmeans"),
        workloads::findWorkload("linear_regression"),
        workloads::findWorkload("histogram'"),
    };
    const CaptureOptions opt;

    // Two independent runners race over one cache directory; atomic
    // temp-file + rename writes mean neither can observe a torn file.
    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    cfg.numWorkers = 2;
    core::SweepRunner a(cfg), b(cfg);
    std::vector<std::shared_ptr<const TraceFile>> got_a(defs.size());
    std::vector<std::shared_ptr<const TraceFile>> got_b(defs.size());
    std::thread ta([&] {
        for (std::size_t i = 0; i < defs.size(); ++i)
            got_a[i] = a.captureFile(*defs[i], opt);
    });
    std::thread tb([&] {
        for (std::size_t i = defs.size(); i-- > 0;)
            got_b[i] = b.captureFile(*defs[i], opt);
    });
    ta.join();
    tb.join();

    // Correct hit accounting: each runner resolved every key exactly
    // once, by simulating or by a disk hit (never a torn read).
    const core::SweepStats sa = a.stats(), sb = b.stats();
    EXPECT_EQ(sa.machineRuns + sa.diskCacheHits, defs.size());
    EXPECT_EQ(sb.machineRuns + sb.diskCacheHits, defs.size());
    EXPECT_EQ(sa.memoryCacheHits, 0u);
    EXPECT_EQ(sb.memoryCacheHits, 0u);

    for (std::size_t i = 0; i < defs.size(); ++i) {
        ASSERT_NE(got_a[i], nullptr);
        ASSERT_NE(got_b[i], nullptr);
        EXPECT_EQ(got_a[i]->meta().workload, defs[i]->info.name);
        EXPECT_EQ(got_b[i]->meta().workload, defs[i]->info.name);
        EXPECT_EQ(got_a[i]->recordCount(), got_b[i]->recordCount());
    }

    // Every cache file opens cleanly, and a third runner is served
    // entirely from disk.
    std::size_t files = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != kTraceExtension)
            continue;
        ++files;
        TraceFile file;
        EXPECT_EQ(file.open(entry.path().string()), TraceStatus::Ok)
            << entry.path();
    }
    EXPECT_EQ(files, defs.size());
    core::SweepRunner c(cfg);
    for (const auto *def : defs) {
        TraceFile file;
        ASSERT_EQ(file.open(c.cachePath(configHash(
                      makeCaptureMeta(*def, opt)))),
                  TraceStatus::Ok);
        EXPECT_TRUE(file.payloadChecksumOk());
        Trace decoded;
        EXPECT_EQ(file.readAll(&decoded), TraceStatus::Ok);
        EXPECT_NE(c.captureFile(*def, opt), nullptr);
    }
    EXPECT_EQ(c.stats().machineRuns, 0u);
    EXPECT_EQ(c.stats().diskCacheHits, defs.size());
    fs::remove_all(dir);
}

TEST(SweepRunner, UnwritableCacheDirSurfacesWriteFailures)
{
    // A cacheDir whose parent is a regular file can never be created —
    // the reliable way to force write failures when tests run as root
    // (chmod 000 is a no-op for root). The capture itself must still
    // succeed; the failure lands in SweepStats::cacheWriteFailures, the
    // count laser_trace's cache-hit summary surfaces with a warning.
    const fs::path file =
        fs::temp_directory_path() / "laser_cache_notdir";
    fs::remove_all(file);
    std::ofstream(file) << "regular file, not a directory\n";

    core::SweepRunner::Config cfg;
    cfg.cacheDir = (file / "sub").string();
    core::SweepRunner runner(cfg);
    const auto *kmeans = workloads::findWorkload("kmeans");
    const auto trace = runner.captureFile(*kmeans, CaptureOptions{});
    ASSERT_NE(trace, nullptr);
    EXPECT_GT(trace->recordCount(), 0u);
    EXPECT_EQ(runner.stats().machineRuns, 1u);
    EXPECT_EQ(runner.stats().cacheWriteFailures, 1u);

    // A repeated request is served by the same slot (the freshly
    // encoded in-memory image): no second simulation, no second write.
    EXPECT_EQ(runner.captureFile(*kmeans, CaptureOptions{}).get(),
              trace.get());
    EXPECT_EQ(runner.stats().machineRuns, 1u);
    EXPECT_EQ(runner.stats().cacheWriteFailures, 1u);
    fs::remove_all(file);
}

TEST(SweepRunner, CorruptCachedRecordBlockMakesReplayThrow)
{
    // A cache file whose header, meta and index verify is a disk hit;
    // a record block failing its checksum then surfaces from the replay
    // as an exception carrying the typed status.
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_bad_block_test";
    fs::remove_all(dir);
    const auto *kmeans = workloads::findWorkload("kmeans");
    const CaptureOptions opt;
    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    std::string path;
    {
        core::SweepRunner warm(cfg);
        ASSERT_NE(warm.captureFile(*kmeans, opt), nullptr);
        path = warm.cachePath(configHash(makeCaptureMeta(*kmeans, opt)));
    }

    // The last 8 payload bytes hold the index offset; the byte just
    // before the index is the last record-blob byte.
    std::vector<std::uint8_t> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(image.size(), kTraceHeaderSize + 16);
    std::uint64_t index_offset = 0;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(image[image.size() - 16 + i])
                        << (8 * i);
    image[kTraceHeaderSize + index_offset - 1] ^= 0x20;
    writeBytes(path, image);

    core::SweepRunner runner(cfg);
    const auto file = runner.captureFile(*kmeans, opt);
    ASSERT_NE(file, nullptr);
    try {
        (void)replayDetection(*file, 1);
        ADD_FAILURE() << "replay digested a corrupt record block";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      traceStatusName(TraceStatus::Corrupt)),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(runner.stats().diskCacheHits, 1u);
    EXPECT_EQ(runner.stats().machineRuns, 0u);
    fs::remove_all(dir);
}

TEST(SweepRunner, CorruptCacheFileIsResimulatedAndRepaired)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_corrupt_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto *kmeans = workloads::findWorkload("kmeans");
    const CaptureOptions opt;
    const std::uint64_t key = configHash(makeCaptureMeta(*kmeans, opt));

    // Junk, and a valid image of this very capture stamped with a stale
    // format version (a cache written before a format bump).
    const std::string junk = "not a trace";
    std::vector<std::uint8_t> stale = encode(captureTrace(*kmeans, opt));
    stale[4] = 3;
    const std::vector<std::vector<std::uint8_t>> poisons = {
        {junk.begin(), junk.end()}, stale};

    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    for (const std::vector<std::uint8_t> &poison : poisons) {
        SCOPED_TRACE(poison == stale ? "stale version" : "junk");
        core::SweepRunner runner(cfg);
        writeBytes(runner.cachePath(key), poison);
        EXPECT_NE(runner.captureFile(*kmeans, opt), nullptr);
        EXPECT_EQ(runner.stats().machineRuns, 1u);
        EXPECT_EQ(runner.stats().diskCacheHits, 0u);

        // The poisoned file was overwritten with a current trace...
        TraceFile file;
        ASSERT_EQ(file.open(runner.cachePath(key)), TraceStatus::Ok)
            << file.error();
        EXPECT_TRUE(file.payloadChecksumOk());
        Trace decoded;
        EXPECT_EQ(file.readAll(&decoded), TraceStatus::Ok);
        // ...which the next runner serves from disk.
        core::SweepRunner next(cfg);
        EXPECT_NE(next.captureFile(*kmeans, opt), nullptr);
        EXPECT_EQ(next.stats().machineRuns, 0u);
        EXPECT_EQ(next.stats().diskCacheHits, 1u);
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace laser::trace
