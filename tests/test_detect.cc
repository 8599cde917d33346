/**
 * @file
 * Unit tests for LASERDETECT: maps parsing/filtering, the Figure 5
 * cache-line model, pipeline filtering, line aggregation, rate
 * thresholding, TS/FS typing and the online repair trigger.
 */

#include <gtest/gtest.h>

#include "detect/cacheline_model.h"
#include "detect/maps_filter.h"
#include "detect/pipeline.h"
#include "isa/assembler.h"
#include "mem/address_space.h"
#include "pebs/record.h"
#include "sim/timing.h"
#include "workloads/workload.h"

namespace laser::detect {
namespace {

using namespace laser::isa;

// ---------------------------------------------------------------------
// MapsFilter
// ---------------------------------------------------------------------

isa::Program
progWithLib()
{
    Asm a("demo");
    a.at(10).store(R2, 0, R3, 8); // index 0, app store
    a.at(11).load(R4, R2, 0, 8);  // index 1, app load
    a.movi(R12, 0x600040);
    a.callLib(LibFn::Unlock);
    a.halt();
    return a.finalize();
}

TEST(MapsFilter, ParsesRenderedMaps)
{
    isa::Program p = progWithLib();
    mem::AddressSpace space(p, 2);
    MapsFilter filter(space.renderProcMaps());
    EXPECT_GE(filter.entries().size(), 5u);
}

TEST(MapsFilter, ClassifiesPcs)
{
    isa::Program p = progWithLib();
    mem::AddressSpace space(p, 2);
    MapsFilter filter(space.renderProcMaps());

    EXPECT_EQ(filter.classifyPc(space.indexToPc(0)),
              PcClass::Application);
    EXPECT_EQ(filter.classifyPc(space.indexToPc(p.segments[1].begin)),
              PcClass::Library);
    EXPECT_EQ(filter.classifyPc(0x30000000), PcClass::Other);
    EXPECT_EQ(filter.classifyPc(0xffff800000001000ULL), PcClass::Other);
    // Data regions are not executable: PCs there are "other".
    EXPECT_EQ(filter.classifyPc(mem::Layout::kHeapBase + 64),
              PcClass::Other);
}

TEST(MapsFilter, ClassifiesDataAddresses)
{
    isa::Program p = progWithLib();
    mem::AddressSpace space(p, 2);
    MapsFilter filter(space.renderProcMaps());

    EXPECT_EQ(filter.classifyData(mem::Layout::kHeapBase + 64),
              DataClass::Heap);
    EXPECT_EQ(filter.classifyData(space.stackTop(0)), DataClass::Stack);
    EXPECT_EQ(filter.classifyData(space.stackTop(1)), DataClass::Stack);
    EXPECT_EQ(filter.classifyData(mem::Layout::kGlobalsBase + 8),
              DataClass::Globals);
    EXPECT_EQ(filter.classifyData(0x30000000), DataClass::Unmapped);
    EXPECT_EQ(filter.classifyData(0xffff800000001000ULL),
              DataClass::Kernel);
}

TEST(MapsFilter, ResolvedClassesFollowThePathRules)
{
    // Hand-written lines covering every rule, most of which the
    // simulator's rendered maps never produce.
    const MapsFilter filter(
        "00400000-00401000 r-xp 00000000 00:00 0 /app/main\n"
        "00401000-00402000 rw-p 00000000 00:00 0 /app/main\n"
        "00500000-00501000 r-xp 00000000 00:00 0 /lib/libc.so\n"
        "00600000-00601000 r-xp 00000000 00:00 0 /usr/lib/libm.so\n"
        "00700000-00701000 rw-p 00000000 00:00 0 [stack]\n"
        "00710000-00711000 rw-p 00000000 00:00 0 [stack:3]\n"
        "00800000-00801000 rw-p 00000000 00:00 0 [heap]\n"
        "00900000-00901000 r-xp 00000000 00:00 0\n"
        "00a00000-00a01000 rw-p 00000000 00:00 0\n"
        "not a maps line\n"
        "00b00000-00b01000 r-xp\n");
    EXPECT_EQ(filter.entries().size(), 9u); // the malformed two skipped

    struct Row
    {
        std::uint64_t addr;
        PcClass pc;
        DataClass data;
    };
    const Row rows[] = {
        {0x00400010, PcClass::Application, DataClass::Code},
        {0x00401010, PcClass::Other, DataClass::Globals},
        {0x00500010, PcClass::Library, DataClass::Code},
        {0x00600010, PcClass::Library, DataClass::Code},
        {0x00700010, PcClass::Other, DataClass::Stack},
        {0x00710010, PcClass::Other, DataClass::Stack},
        {0x00800010, PcClass::Other, DataClass::Heap},
        {0x00900010, PcClass::Other, DataClass::Code},    // anonymous x
        {0x00a00010, PcClass::Other, DataClass::Globals}, // anonymous
        {0x00b00010, PcClass::Other, DataClass::Unmapped}, // malformed
        {0x00c00000, PcClass::Other, DataClass::Unmapped},
        {0xffff800000001000ULL, PcClass::Other, DataClass::Kernel},
    };
    for (const Row &row : rows) {
        EXPECT_EQ(filter.classifyPc(row.addr), row.pc)
            << std::hex << row.addr;
        EXPECT_EQ(filter.classifyData(row.addr), row.data)
            << std::hex << row.addr;
    }
}

/**
 * DetectorContext's precomputed stage-2 test agrees with the maps
 * search at the edges of every maps entry: start-1, start, end-1, end.
 */
void
expectStackTestMatchesMaps(const DetectorContext &ctx,
                           const std::string &what)
{
    std::vector<std::uint64_t> probes = {0, ~0ULL, kKernelAddrBase - 1,
                                         kKernelAddrBase};
    for (const MapsEntry &e : ctx.maps.entries())
        probes.insert(probes.end(),
                      {e.start - 1, e.start, e.end - 1, e.end});
    for (const std::uint64_t a : probes)
        EXPECT_EQ(ctx.isStack(a),
                  ctx.maps.classifyData(a) == DataClass::Stack)
            << what << " at 0x" << std::hex << a;
}

TEST(MapsFilter, PrecomputedStackTestMatchesEveryWorkloadsMaps)
{
    const sim::TimingModel timing{};
    for (const workloads::WorkloadDef &def : workloads::allWorkloads()) {
        const workloads::BuildOptions opt;
        const isa::Program prog = def.buildProgram(opt);
        for (const int threads : {opt.numThreads, 32}) {
            const mem::AddressSpace space(prog, threads);
            const DetectorContext ctx(prog, space, space.renderProcMaps(),
                                      timing);
            EXPECT_EQ(ctx.stackRanges.size(), std::size_t(threads))
                << def.info.name;
            expectStackTestMatchesMaps(
                ctx, def.info.name + " x" + std::to_string(threads));
        }
    }
}

TEST(MapsFilter, PrecomputedStackTestMatchesCraftedMaps)
{
    const isa::Program prog = progWithLib();
    const mem::AddressSpace space(prog, 2);
    const sim::TimingModel timing{};
    const std::string line = " rw-p 00000000 00:00 0 ";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"overlap: a heap starts inside a stack",
         "00001000-00005000" + line + "[stack]\n"
         "00003000-00004000" + line + "[heap]\n"},
        {"overlap: a stack starts inside globals and outlives them",
         "00010000-00020000" + line + "/app/data\n"
         "00018000-00030000" + line + "[stack:1001]\n"},
        {"overlap: a stack covers later entries",
         "00040000-00100000" + line + "[stack]\n"
         "00050000-00060000" + line + "[heap]\n"
         "00070000-00080000" + line + "[stack:1002]\n"},
        {"duplicate starts, stack first",
         "00200000-00210000" + line + "[stack]\n"
         "00200000-00220000" + line + "[heap]\n"},
        {"duplicate starts, stack last",
         "00300000-00320000" + line + "[heap]\n"
         "00300000-00310000" + line + "[stack]\n"},
        {"zero-length and inverted entries",
         "00400000-00400000" + line + "[stack]\n"
         "00500000-004ff000" + line + "[stack:1003]\n"
         "00600000-00601000" + line + "[stack:1004]\n"},
        {"entries at and across the kernel boundary",
         "ffff7ffffffff000-ffff800000001000" + line + "[stack]\n"
         "ffff800000000000-ffff800000010000" + line + "[stack:1005]\n"
         "ffffffffffff0000-ffffffffffffffff" + line + "[stack:1006]\n"},
        {"one stack over the whole address space",
         "00000000-ffffffffffffffff" + line + "[stack]\n"},
        {"no stack at all", "00001000-00002000" + line + "[heap]\n"},
    };
    for (const auto &[what, maps] : cases) {
        const DetectorContext ctx(prog, space, maps, timing);
        expectStackTestMatchesMaps(ctx, what);
        for (const DetectorContext::StackRange &r : ctx.stackRanges) {
            EXPECT_GT(r.bytes, 0u) << what;
            EXPECT_LE(r.begin + r.bytes, kKernelAddrBase) << what;
        }
    }
}

// ---------------------------------------------------------------------
// CacheLineModel (Figure 5): footprints and the decision, plus the
// per-line state DetectorPipeline keeps for them
// ---------------------------------------------------------------------

/** Figure 5's verdict on two accesses to one line (previous first). */
SharingOutcome
verdict(std::uint64_t prev_addr, int prev_size, bool prev_write,
        std::uint64_t addr, int size, bool is_write, int line_bytes = 64)
{
    return CacheLineModel::classify(
        CacheLineModel::byteMask(prev_addr, prev_size, line_bytes),
        prev_write, CacheLineModel::byteMask(addr, size, line_bytes),
        is_write);
}

/**
 * A Shard-mode pipeline over a store (index 0) and a load (index 1),
 * both 8 bytes wide, that classifies against @p line_bytes lines.
 */
struct LineFixture
{
    isa::Program prog = [] {
        Asm a("lines");
        a.at(10).store(R2, 0, R3, 8);
        a.at(11).load(R4, R2, 0, 8);
        a.halt();
        return a.finalize();
    }();
    mem::AddressSpace space{prog, 2};
    DetectorContext ctx;
    DetectorPipeline pipeline;

    explicit LineFixture(int line_bytes = 64)
        : ctx(prog, space, space.renderProcMaps(), sim::TimingModel{},
              line_bytes),
          pipeline(ctx, {}, DetectorPipeline::Mode::Shard)
    {
    }

    /** One 8-byte access at @p addr; returns its outcome. */
    SharingOutcome
    access(std::uint64_t addr, bool is_write)
    {
        pebs::PebsRecord r;
        r.pc = space.indexToPc(is_write ? 0 : 1);
        r.dataAddr = addr;
        r.cycle = 1000 + pipeline.state().rateEvents.size();
        pipeline.onRecord(r);
        return pipeline.state().rateEvents.back().outcome;
    }

    std::size_t linesTracked() const { return pipeline.state().lines.size(); }
};

TEST(CacheLineModel, FirstAccessIsNone)
{
    LineFixture f;
    EXPECT_EQ(f.access(0x1000000, true), SharingOutcome::None);
    EXPECT_EQ(f.linesTracked(), 1u);
    // Without a previous access the footprint is empty.
    EXPECT_EQ(verdict(0x1000, 0, false, 0x1000, 4, true),
              SharingOutcome::None);
}

TEST(CacheLineModel, Figure5Example)
{
    // Figure 5: previous 2B write at the line base, incoming 4B write at
    // base+4: disjoint bytes => false sharing.
    EXPECT_EQ(verdict(0x1000, 2, true, 0x1004, 4, true),
              SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, OverlapWithWriteIsTrueSharing)
{
    EXPECT_EQ(verdict(0x1000, 8, true, 0x1004, 8, false),
              SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, ReadReadIsNotContention)
{
    EXPECT_EQ(verdict(0x1000, 8, false, 0x1000, 8, false),
              SharingOutcome::None);
    EXPECT_EQ(verdict(0x1000, 8, false, 0x1020, 8, false),
              SharingOutcome::None);
    LineFixture f;
    f.access(0x1000000, false);
    EXPECT_EQ(f.access(0x1000000, false), SharingOutcome::None);
    EXPECT_EQ(f.access(0x1000020, false), SharingOutcome::None);
}

TEST(CacheLineModel, ReadThenWriteOverlapIsTrueSharing)
{
    EXPECT_EQ(verdict(0x1000, 8, false, 0x1000, 8, true),
              SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, DistinctLinesIndependent)
{
    LineFixture f;
    f.access(0x1000000, true);
    EXPECT_EQ(f.access(0x1000040, true), SharingOutcome::None);
    EXPECT_EQ(f.linesTracked(), 2u);
}

TEST(CacheLineModel, TracksLatestAccessOnly)
{
    LineFixture f;
    f.access(0x1000000, true); // bytes 0-7
    EXPECT_EQ(f.access(0x1000010, false), // bytes 16-23 -> FS, now last
              SharingOutcome::FalseSharing);
    // Incoming write to bytes 16-23 overlaps the *previous* (read)
    // access, not the first write.
    EXPECT_EQ(f.access(0x1000010, true), SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, AccessClippedAtLineBoundary)
{
    // 8B access at offset 60 clips to bytes 60-63 of this line.
    EXPECT_EQ(CacheLineModel::byteMask(0x103c, 8), 0xfull << 60);
    EXPECT_EQ(verdict(0x103c, 8, true, 0x1000, 4, true),
              SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, ZeroSizeAccessIsNeverContention)
{
    // Regression: a size-0 access used to produce an empty byte mask
    // that classify() reported as FalseSharing whenever a write was
    // involved — phantom FS events from degenerate records.
    EXPECT_EQ(CacheLineModel::byteMask(0x1000, 0), 0u);
    EXPECT_EQ(verdict(0x1000, 0, true, 0x1008, 4, false),
              SharingOutcome::None);
    EXPECT_EQ(verdict(0x1000, 8, true, 0x1008, 0, true),
              SharingOutcome::None);
    EXPECT_EQ(verdict(0x1000, 8, true, 0x1010, 0, false),
              SharingOutcome::None);
}

TEST(CacheLineModel, NegativeSizeAccessIsNeverContention)
{
    EXPECT_EQ(verdict(0x1000, 8, true, 0x1008, -4, true),
              SharingOutcome::None);
    EXPECT_EQ(CacheLineModel::byteMask(0x1008, -4), 0u);
}

TEST(CacheLineModel, ClassifyEmptyMaskIsNone)
{
    EXPECT_EQ(CacheLineModel::classify(0, true, 0xff, true),
              SharingOutcome::None);
    EXPECT_EQ(CacheLineModel::classify(0xff, true, 0, true),
              SharingOutcome::None);
    EXPECT_EQ(CacheLineModel::classify(0xff, true, 0xff00, true),
              SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, NarrowLinesSeparateNeighbours)
{
    // With 32-byte lines, offsets 32 bytes apart are different lines.
    LineFixture f(32);
    EXPECT_EQ(f.ctx.lineBytes, 32);
    f.access(0x1000000, true);
    EXPECT_EQ(f.access(0x1000020, true), SharingOutcome::None);
    EXPECT_EQ(f.linesTracked(), 2u);
    // ... but offsets within the same 32-byte line still contend.
    EXPECT_EQ(f.access(0x1000008, true), SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, WideLinesJoinNeighbours)
{
    // With 128-byte lines, offsets 0 and 96 share a line; the footprint
    // is tracked at 2-byte granules so disjointness is still seen.
    LineFixture f(128);
    EXPECT_EQ(f.ctx.lineBytes, 128);
    f.access(0x1000000, true);
    EXPECT_EQ(f.access(0x1000060, true), SharingOutcome::FalseSharing);
    EXPECT_EQ(f.linesTracked(), 1u);
    EXPECT_EQ(f.access(0x1000060, false), SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, WideLineMaskGranules)
{
    // 128-byte line: bit i covers bytes [2i, 2i+2).
    EXPECT_EQ(CacheLineModel::byteMask(0x1000, 2, 128), 0x1u);
    EXPECT_EQ(CacheLineModel::byteMask(0x1000, 4, 128), 0x3u);
    EXPECT_EQ(CacheLineModel::byteMask(0x1060, 2, 128), 1ull << 48);
    // A full-line access covers all 64 granule bits.
    EXPECT_EQ(CacheLineModel::byteMask(0x1000, 128, 128), ~0ull);
    // Odd offsets round outward to their covering granules.
    EXPECT_EQ(CacheLineModel::byteMask(0x1001, 2, 128), 0x3u);
}

TEST(CacheLineModel, InvalidLineBytesFallsBackToDefault)
{
    // 48 is not a power of two; 4096 is out of the simulated geometry
    // range.
    for (const int bad : {48, 4096}) {
        EXPECT_EQ(CacheLineModel::lineBytesOrDefault(bad),
                  CacheLineModel::kDefaultLineBytes)
            << bad;
        EXPECT_EQ(LineFixture(bad).ctx.lineBytes,
                  CacheLineModel::kDefaultLineBytes)
            << bad;
    }
    EXPECT_EQ(CacheLineModel::lineBytesOrDefault(32), 32);
}

// ---------------------------------------------------------------------
// Detector pipeline
// ---------------------------------------------------------------------

struct DetectorFixture
{
    isa::Program prog = progWithLib();
    mem::AddressSpace space{prog, 2};
    sim::TimingModel timing{};

    pebs::PebsRecord
    record(std::uint32_t index, std::uint64_t addr,
           std::uint64_t cycle = 1000) const
    {
        pebs::PebsRecord r;
        r.pc = space.indexToPc(index);
        r.dataAddr = addr;
        r.core = 0;
        r.cycle = cycle;
        return r;
    }

    DetectorContext ctx{prog, space, space.renderProcMaps(), timing};

    DetectorPipeline
    makeDetector(DetectorConfig cfg = {}) const
    {
        return DetectorPipeline(ctx, cfg);
    }
};

TEST(Detector, DropsSpuriousPcs)
{
    DetectorFixture f;
    DetectorPipeline d = f.makeDetector();
    pebs::PebsRecord junk;
    junk.pc = 0x30000000; // outside any mapping
    junk.dataAddr = 0x1000000;
    d.onRecord(junk);
    junk.pc = 0xffff800000001000ULL; // kernel
    d.onRecord(junk);
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_EQ(rep.droppedPcFilter, 2u);
    EXPECT_TRUE(rep.lines.empty());
}

TEST(Detector, DropsStackDataAddresses)
{
    DetectorFixture f;
    DetectorPipeline d = f.makeDetector();
    d.onRecord(f.record(0, f.space.stackTop(0)));
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_EQ(rep.droppedStackData, 1u);
    EXPECT_TRUE(rep.lines.empty());
}

TEST(Detector, ReportsHotLineAboveThreshold)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // 1000 records at one PC over ~1ms represented time: far above 1K/s.
    for (int i = 0; i < 1000; ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 8));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_EQ(rep.lines.size(), 1u);
    EXPECT_EQ(rep.lines[0].location, "main.c:10");
    EXPECT_FALSE(rep.lines[0].library);
    EXPECT_EQ(rep.lines[0].records, 1000u);
    EXPECT_GE(rep.lines[0].hitmRate, cfg.rateThreshold);
}

TEST(Detector, RateThresholdFiltersColdLines)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    // 3.4e9 cycles = 1000 represented seconds at compression 1000; three
    // records => 0.003/s, far below any threshold.
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 3; ++i)
        d.onRecord(f.record(0, 0x1000000));
    DetectionReport rep = d.finish(1'133'333'333ULL);
    EXPECT_TRUE(rep.lines.empty());
}

TEST(Detector, ClassifiesFalseSharing)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // Alternating disjoint 8-byte halves of one line, written via the
    // store at index 0.
    for (int i = 0; i < 2000; ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 32));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_EQ(rep.lines[0].type, ContentionType::FalseSharing);
    EXPECT_GT(rep.lines[0].fsEvents, rep.lines[0].tsEvents);
}

TEST(Detector, ClassifiesTrueSharing)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 2000; ++i)
        d.onRecord(f.record(0, 0x1000000)); // same word every time
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_EQ(rep.lines[0].type, ContentionType::TrueSharing);
}

TEST(Detector, NoisyAddressesYieldUnknownType)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // Unique garbage addresses: no line ever sees two accesses, so
    // nothing classifies (the linear_regression -O3 situation).
    for (int i = 0; i < 2000; ++i)
        d.onRecord(f.record(0, 0x20000000 + i * 4096));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_EQ(rep.lines[0].type, ContentionType::Unknown);
}

TEST(Detector, AggregatesAdjacentPcsToSameLine)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // Records at index 0 and (skidded) index 1 belong to lines 10/11.
    for (int i = 0; i < 2400; ++i) {
        d.onRecord(f.record(0, 0x1000000));
        d.onRecord(f.record(1, 0x1000000));
    }
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_NE(rep.findLine("main.c:10"), nullptr);
    EXPECT_NE(rep.findLine("main.c:11"), nullptr);
}

TEST(Detector, RepairTriggersOnFalseSharingStorm)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 19;
    cfg.rateCheckInterval = 100'000;
    DetectorPipeline d = f.makeDetector(cfg);
    // Heavy FS: disjoint halves, cycles advancing so rates compute.
    for (int i = 0; i < 5000 && !d.repairRequested(); ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 32,
                                 1000 + 400ull * i));
    DetectionReport rep = d.finish(1'700'000);
    EXPECT_TRUE(rep.repairRequested);
    ASSERT_FALSE(rep.repairPcs.empty());
    EXPECT_EQ(rep.repairPcs[0], 0u); // the store instruction
    EXPECT_GT(rep.repairTriggerCycle, 0u);
}

TEST(Detector, RepairNotTriggeredByTrueSharing)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 19;
    cfg.rateCheckInterval = 100'000;
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 5000; ++i)
        d.onRecord(f.record(0, 0x1000000, 1000 + 400ull * i));
    DetectionReport rep = d.finish(1'700'000);
    EXPECT_FALSE(rep.repairRequested);
}

TEST(Detector, RepairNotTriggeredBelowRate)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 19;
    cfg.rateCheckInterval = 100'000;
    DetectorPipeline d = f.makeDetector(cfg);
    // Sparse FS records: far apart in time.
    for (int i = 0; i < 200; ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 32,
                                 1000 + 10'000'000ull * i));
    DetectionReport rep = d.finish(700'000'000ULL);
    EXPECT_FALSE(rep.repairRequested);
}

TEST(Detector, DetectorCyclesScaleWithRecords)
{
    DetectorFixture f;
    DetectorConfig cfg;
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 100; ++i)
        d.onRecord(f.record(0, 0x1000000));
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_EQ(rep.detectorCycles, 100ull * f.timing.detectorPerRecord);
}

TEST(Detector, LibraryLinesFlagged)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    const std::uint32_t lib_index = f.prog.segments[1].begin;
    for (int i = 0; i < 1000; ++i)
        d.onRecord(f.record(lib_index, 0x1000000));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_TRUE(rep.lines[0].library);
    EXPECT_NE(rep.lines[0].location.find("libpthread.c"),
              std::string::npos);
}

} // namespace
} // namespace laser::detect
