/**
 * @file
 * Tests for the workload suite: registry integrity, program validity,
 * determinism, and — most importantly — that each kernel reproduces the
 * sharing structure the paper describes (parameterized over all 35
 * workloads where applicable).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "machine_digest.h"
#include "mem/address_space.h"
#include "sim/machine.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace laser::workloads {
namespace {

sim::MachineStats
runBuild(WorkloadBuild build, sim::MachineConfig mc = {})
{
    sim::Machine machine(std::move(build.program), mc);
    build.applyTo(machine);
    return machine.run();
}

TEST(Registry, HasThirtyFiveConfigurations)
{
    EXPECT_EQ(allWorkloads().size(), 35u); // Table 1 rows
}

TEST(Registry, NamesAreUniqueAndFindable)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads()) {
        EXPECT_TRUE(names.insert(w.info.name).second)
            << "duplicate " << w.info.name;
        EXPECT_EQ(findWorkload(w.info.name), &w);
    }
    EXPECT_EQ(findWorkload("no_such_benchmark"), nullptr);
}

TEST(Registry, NineBuggyWorkloads)
{
    EXPECT_EQ(buggyWorkloads().size(), 9u); // Table 2 rows
}

TEST(Registry, SuitesCovered)
{
    int phoenix = 0, parsec = 0, splash = 0;
    for (const auto &w : allWorkloads()) {
        phoenix += w.info.suite == Suite::Phoenix;
        parsec += w.info.suite == Suite::Parsec;
        splash += w.info.suite == Suite::Splash2x;
    }
    EXPECT_EQ(phoenix, 9);  // includes histogram twice
    EXPECT_EQ(parsec, 13);
    EXPECT_EQ(splash, 13);
}

/** Parameterized over every workload. */
class EveryWorkload : public ::testing::TestWithParam<std::size_t>
{
  protected:
    const WorkloadDef &def() const { return allWorkloads()[GetParam()]; }
};

TEST_P(EveryWorkload, ProgramValidates)
{
    WorkloadBuild build = def().build(BuildOptions{});
    EXPECT_EQ(build.program.validate(), "") << def().info.name;
    EXPECT_GT(build.program.size(), 10u);
}

TEST_P(EveryWorkload, RunsToCompletion)
{
    sim::MachineStats stats = runBuild(def().build(BuildOptions{}));
    EXPECT_FALSE(stats.truncated) << def().info.name;
    EXPECT_GT(stats.instructions, 1000u);
    // Compressed-kernel budget: every run finishes within 16M cycles.
    EXPECT_LT(stats.cycles, 16'000'000u) << def().info.name;
}

TEST_P(EveryWorkload, DeterministicAcrossRuns)
{
    sim::MachineStats a = runBuild(def().build(BuildOptions{}));
    sim::MachineStats b = runBuild(def().build(BuildOptions{}));
    EXPECT_EQ(a.cycles, b.cycles) << def().info.name;
    EXPECT_EQ(a.hitmTotal(), b.hitmTotal());
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST_P(EveryWorkload, BuggyWorkloadsGenerateContention)
{
    if (def().info.bugs.empty())
        GTEST_SKIP() << "no known bug";
    sim::MachineStats stats = runBuild(def().build(BuildOptions{}));
    EXPECT_GT(stats.hitmTotal(), 300u) << def().info.name;
}

TEST_P(EveryWorkload, ManualFixReducesHitms)
{
    if (!def().info.hasManualFix)
        GTEST_SKIP() << "no manual fix variant";
    BuildOptions fixed_opt;
    fixed_opt.manualFix = true;
    sim::MachineStats native = runBuild(def().build(BuildOptions{}));
    sim::MachineStats fixed = runBuild(def().build(fixed_opt));
    // Every fix reduces HITMs (padding fixes eliminate them; dedup's
    // lock-free queue trades lock HITMs for peek traffic but wins on
    // runtime, checked in Dedup.LockFreeFixReducesSyncAndHitms).
    EXPECT_LT(fixed.hitmTotal(), native.hitmTotal() * 4 / 5)
        << def().info.name;
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryWorkload,
    ::testing::Range<std::size_t>(0, allWorkloads().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = allWorkloads()[info.param].info.name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Initial memory images
// ---------------------------------------------------------------------

/**
 * Fnv64 over the non-zero (address, byte) pairs a fresh machine holds
 * after applyTo, in address order, led by their count. Independent of
 * how a WorkloadBuild stores its image.
 */
std::uint64_t
imageDigest(WorkloadBuild build)
{
    sim::Machine machine(std::move(build.program), {});
    build.applyTo(machine);
    std::vector<std::pair<std::uint64_t, std::uint8_t>> bytes;
    machine.memory().forEachPage(
        [&](std::uint64_t base, const std::uint8_t *page) {
            for (std::uint64_t i = 0; i < mem::Memory::kPageBytes; ++i) {
                if (page[i] != 0)
                    bytes.emplace_back(base + i, page[i]);
            }
        });
    std::sort(bytes.begin(), bytes.end());
    sim::Fnv64 h;
    h.mix(bytes.size());
    for (const auto &[addr, byte] : bytes) {
        h.mix(addr);
        h.mix(byte);
    }
    return h.hash;
}

struct ImageGolden
{
    const char *workload;
    /** BuildOptions::scale 1 and 4. */
    std::uint64_t native1;
    std::uint64_t native4;
    /** The manualFix build at scale 1 and 4; 0 without hasManualFix. */
    std::uint64_t fixed1;
    std::uint64_t fixed4;
};

/**
 * Image digests captured when each WorkloadBuild still held one
 * {addr, size, value} entry per init8/init64 call; any change to how
 * images are stored or applied must leave them unchanged.
 */
constexpr ImageGolden kGoldenImages[] = {
    {"barnes", 0xd361ec2c148b0336ULL, 0xd361ec2c148b0336ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"blackscholes", 0x74c75f848c2e9356ULL, 0x74c75f848c2e9356ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"bodytrack", 0x041f7c617cd104a5ULL, 0x041f7c617cd104a5ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"canneal", 0xd1bfda7ab39775a7ULL, 0xd1bfda7ab39775a7ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"dedup", 0xce73ee291503e77aULL, 0xce73ee291503e77aULL,
     0xce73ee291503e77aULL, 0xce73ee291503e77aULL},
    {"facesim", 0x9bf40fe8b4e9ce9eULL, 0x9bf40fe8b4e9ce9eULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"ferret", 0x1b4256b25f6f2edbULL, 0x1b4256b25f6f2edbULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"fft", 0xef256243cbeba91eULL, 0xef256243cbeba91eULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"fluidanimate", 0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"fmm", 0x784ace83cc42013fULL, 0x784ace83cc42013fULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"freqmine", 0xfa55f70d3f885e6fULL, 0xfa55f70d3f885e6fULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"histogram", 0x0de955fe74670b09ULL, 0x30e48b73567e6c45ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"histogram'", 0xc3433ff878f220c5ULL, 0xa059f2c28a0b5b47ULL,
     0xc3433ff878f220c5ULL, 0xa059f2c28a0b5b47ULL},
    {"kmeans", 0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL,
     0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL},
    {"linear_regression", 0x3f6cd27843ba18a3ULL, 0xe79853c81746a543ULL,
     0x3f6cd27843ba18a3ULL, 0xe79853c81746a543ULL},
    {"lu_cb", 0x784ace83cc42013fULL, 0x784ace83cc42013fULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"lu_ncb", 0x49c111b130ad181aULL, 0x49c111b130ad181aULL,
     0xc928f61ff1adf0feULL, 0xc928f61ff1adf0feULL},
    {"matrix_multiply", 0xf2170796dec99943ULL, 0xf2170796dec99943ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"ocean_cp", 0x784ace83cc42013fULL, 0x784ace83cc42013fULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"ocean_ncp", 0x784ace83cc42013fULL, 0x784ace83cc42013fULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"pca", 0x8d7cc896e7dcaf7eULL, 0x8d7cc896e7dcaf7eULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"radiosity", 0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"radix", 0x93edc5e2e69460d7ULL, 0x93edc5e2e69460d7ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"raytrace.parsec", 0xc07937b89d0a25bbULL, 0xc07937b89d0a25bbULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"raytrace.splash2x", 0xc07937b89d0a25bbULL, 0xc07937b89d0a25bbULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"reverse_index", 0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL,
     0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL},
    {"streamcluster", 0xa1a8e458a6fd3470ULL, 0xa1a8e458a6fd3470ULL,
     0xdd91140a12efa71cULL, 0xdd91140a12efa71cULL},
    {"string_match", 0x56428d5ab015d7e5ULL, 0x56428d5ab015d7e5ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"swaptions", 0x37c5287fa0e7c7e3ULL, 0x37c5287fa0e7c7e3ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"vips", 0x1c60fc064a225016ULL, 0x1c60fc064a225016ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"volrend", 0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL,
     0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL},
    {"water_nsquared", 0xd361ec2c148b0336ULL, 0xd361ec2c148b0336ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"water_spatial", 0xd361ec2c148b0336ULL, 0xd361ec2c148b0336ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"word_count", 0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
    {"x264", 0x47fe0d7eaf8e51e3ULL, 0x47fe0d7eaf8e51e3ULL,
     0x0000000000000000ULL, 0x0000000000000000ULL},
};

TEST(InitialImage, MatchesGoldens)
{
    const auto &all = allWorkloads();
    ASSERT_EQ(all.size(), sizeof kGoldenImages / sizeof kGoldenImages[0]);
    for (const ImageGolden &golden : kGoldenImages) {
        const WorkloadDef *def = findWorkload(golden.workload);
        ASSERT_NE(def, nullptr) << golden.workload;
        for (bool fix : {false, true}) {
            if (fix && !def->info.hasManualFix)
                continue;
            for (double scale : {1.0, 4.0}) {
                BuildOptions opt;
                opt.manualFix = fix;
                opt.scale = scale;
                const std::uint64_t want =
                    fix ? (scale == 1.0 ? golden.fixed1 : golden.fixed4)
                        : (scale == 1.0 ? golden.native1 : golden.native4);
                EXPECT_EQ(imageDigest(def->build(opt)), want)
                    << golden.workload << (fix ? " manualFix" : "")
                    << " scale " << scale;
            }
        }
    }
}

TEST(InitialImage, AdjacentInitsShareARunAndLaterInitsWin)
{
    const std::uint64_t base = mem::Layout::kGlobalsBase;
    Ctx ctx("image", "image.c", BuildOptions{}, Image::Synthesize);
    ctx.a.halt();
    ctx.init64(base, 0x1111111111111111ULL);
    ctx.init64(base + 8, 0x2222222222222222ULL);
    ctx.init8(base + 16, 0x33);
    ctx.init8(base + 9, 0x44);  // overlaps the second word
    ctx.init64(base + 64, 0x55); // a gap starts a run
    WorkloadBuild build = ctx.finish();
    ASSERT_EQ(build.runs.size(), 3u);
    EXPECT_EQ(build.runs[0].size, 17u);
    EXPECT_EQ(build.bytes.size(), 26u);

    sim::Machine machine(std::move(build.program), {});
    build.applyTo(machine);
    const mem::Memory &m = machine.memory();
    EXPECT_EQ(m.read(base, 8), 0x1111111111111111ULL);
    EXPECT_EQ(m.read(base + 8, 8), 0x2222222222224422ULL);
    EXPECT_EQ(m.readByte(base + 16), 0x33);
    EXPECT_EQ(m.read(base + 64, 8), 0x55u);
    EXPECT_EQ(m.readByte(base + 17), 0);
}

/** The first difference between two programs, or "" when equal. */
std::string
programDiff(const isa::Program &a, const isa::Program &b)
{
    if (a.name != b.name)
        return "name " + a.name + " vs " + b.name;
    if (a.code.size() != b.code.size())
        return "size " + std::to_string(a.code.size()) + " vs " +
               std::to_string(b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i) {
        const isa::Instruction &x = a.code[i];
        const isa::Instruction &y = b.code[i];
        if (x.op != y.op || x.dst != y.dst || x.src1 != y.src1 ||
                x.src2 != y.src2 || x.size != y.size || x.sync != y.sync ||
                x.useSsb != y.useSsb || x.ssbSkip != y.ssbSkip ||
                x.target != y.target || x.imm != y.imm ||
                x.file != y.file || x.line != y.line)
            return "instruction " + std::to_string(i) + ": " +
                   a.disassemble(std::uint32_t(i)) + " vs " +
                   b.disassemble(std::uint32_t(i));
    }
    if (a.files.size() != b.files.size())
        return "file count";
    for (std::size_t i = 0; i < a.files.size(); ++i) {
        if (a.files[i].name != b.files[i].name ||
                a.files[i].isLibrary != b.files[i].isLibrary)
            return "file " + std::to_string(i);
    }
    if (a.segments.size() != b.segments.size())
        return "segment count";
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        const isa::Segment &x = a.segments[i];
        const isa::Segment &y = b.segments[i];
        if (x.name != y.name || x.isLibrary != y.isLibrary ||
                x.begin != y.begin || x.end != y.end)
            return "segment " + std::to_string(i);
    }
    return "";
}

TEST(ProgramOnlyBuild, EqualsFullBuildAndCarriesNoImage)
{
    for (const WorkloadDef &def : allWorkloads()) {
        for (bool fix : {false, true}) {
            if (fix && !def.info.hasManualFix)
                continue;
            for (double scale : {0.5, 1.0, 4.0}) {
                for (int threads : {1, 4, 8}) {
                    for (std::uint64_t shift : {0, 48}) {
                        BuildOptions opt;
                        opt.manualFix = fix;
                        opt.scale = scale;
                        opt.numThreads = threads;
                        opt.heapPerturbation = shift;
                        const WorkloadBuild full = def.build(opt);
                        const WorkloadBuild bare =
                            def.builder(opt, Image::Skip);
                        const std::string where =
                            def.info.name + (fix ? " manualFix" : "") +
                            " scale " + std::to_string(scale) +
                            " threads " + std::to_string(threads) +
                            " shift " + std::to_string(shift);
                        EXPECT_EQ(programDiff(full.program, bare.program),
                                  "")
                            << where;
                        EXPECT_EQ(programDiff(full.program,
                                              def.buildProgram(opt)),
                                  "")
                            << where;
                        EXPECT_TRUE(bare.bytes.empty()) << where;
                        EXPECT_TRUE(bare.runs.empty()) << where;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Workload-specific structure checks
// ---------------------------------------------------------------------

TEST(LinearRegression, FigureTwoLayout)
{
    // The unaligned lreg_args array straddles lines (Figure 2): intense
    // false sharing natively, none when the fix aligns the array.
    const auto *w = findWorkload("linear_regression");
    sim::MachineStats native = runBuild(w->build(BuildOptions{}));
    BuildOptions fixed;
    fixed.manualFix = true;
    sim::MachineStats aligned = runBuild(w->build(fixed));
    EXPECT_GT(native.hitmTotal(), 3000u);
    EXPECT_EQ(aligned.hitmTotal(), 0u);
    // The paper's dramatic manual-fix speedup (Figure 11: 16.9x on the
    // contention phase; our whole-kernel speedup is several-fold).
    EXPECT_GT(double(native.cycles) / double(aligned.cycles), 2.0);
}

TEST(Histogram, FalseSharingIsInputDependent)
{
    // Same binary; only the input changes (Section 7.4.1).
    sim::MachineStats def_input =
        runBuild(findWorkload("histogram")->build(BuildOptions{}));
    sim::MachineStats alt_input =
        runBuild(findWorkload("histogram'")->build(BuildOptions{}));
    EXPECT_EQ(def_input.hitmTotal(), 0u);
    EXPECT_GT(alt_input.hitmTotal(), 5000u);
}

TEST(LuNcb, LaserHeapShiftReducesFalseSharing)
{
    // The +48-byte attach shift realigns half the chunk boundaries
    // (Section 7.4.2's "coincidental change in memory layout").
    const auto *w = findWorkload("lu_ncb");
    sim::MachineStats native = runBuild(w->build(BuildOptions{}));
    BuildOptions shifted_opt;
    shifted_opt.heapPerturbation = 48;
    sim::MachineConfig mc;
    mc.heapPerturbation = 48;
    sim::MachineStats shifted = runBuild(w->build(shifted_opt), mc);
    // The +48 shift aligns half the chunk boundaries; the measurable
    // effect is a solid HITM reduction (and a faster run under LASER).
    EXPECT_LT(shifted.hitmTotal(), native.hitmTotal() * 9 / 10);
}

TEST(LuNcb, ManualFixBeatsLayoutLuck)
{
    // The residual HITMs of the fixed variant come from barriers and
    // pivot-row reads (genuine communication, not the bug).
    const auto *w = findWorkload("lu_ncb");
    sim::MachineStats native = runBuild(w->build(BuildOptions{}));
    BuildOptions fixed;
    fixed.manualFix = true;
    sim::MachineStats aligned = runBuild(w->build(fixed));
    EXPECT_LT(aligned.hitmTotal(), native.hitmTotal() / 2);
}

TEST(Dedup, PipelineProcessesAllItems)
{
    // The pipeline must terminate (sentinels propagate) and its queue
    // locks must contend (the Section 7.4.2 true-sharing find).
    sim::MachineStats stats =
        runBuild(findWorkload("dedup")->build(BuildOptions{}));
    EXPECT_FALSE(stats.truncated);
    EXPECT_GT(stats.syncOps, 500u);
    EXPECT_GT(stats.hitmTotal(), 1000u);
}

TEST(Dedup, LockFreeFixReducesSyncAndHitms)
{
    const auto *w = findWorkload("dedup");
    sim::MachineStats naive = runBuild(w->build(BuildOptions{}));
    BuildOptions fixed;
    fixed.manualFix = true;
    sim::MachineStats lockfree = runBuild(w->build(fixed));
    EXPECT_LT(lockfree.hitmTotal(), naive.hitmTotal());
    EXPECT_LT(lockfree.cycles, naive.cycles);
}

TEST(WaterNsquared, SyncHeavy)
{
    // The Sheriff comparison hinges on water_nsquared's sync density.
    sim::MachineStats stats =
        runBuild(findWorkload("water_nsquared")->build(BuildOptions{}));
    EXPECT_GT(stats.syncOps, 5000u);
}

TEST(Scale, SmallerInputsRunFaster)
{
    const auto *w = findWorkload("histogram");
    BuildOptions small;
    small.scale = 0.25;
    sim::MachineStats full = runBuild(w->build(BuildOptions{}));
    sim::MachineStats quarter = runBuild(w->build(small));
    EXPECT_LT(quarter.cycles, full.cycles / 2);
}

TEST(SheriffCompat, MatrixMatchesTable1)
{
    // Spot-check the compatibility matrix against Table 1.
    EXPECT_EQ(findWorkload("dedup")->info.sheriff,
              SheriffCompat::Incompatible);
    EXPECT_EQ(findWorkload("freqmine")->info.sheriff,
              SheriffCompat::Incompatible); // OpenMP
    EXPECT_EQ(findWorkload("kmeans")->info.sheriff,
              SheriffCompat::Crash);
    EXPECT_EQ(findWorkload("lu_cb")->info.sheriff,
              SheriffCompat::WorksSmallInput);
    EXPECT_EQ(findWorkload("linear_regression")->info.sheriff,
              SheriffCompat::Works);
    EXPECT_EQ(findWorkload("reverse_index")->info.sheriffDetectsBug,
              true);
    EXPECT_EQ(findWorkload("linear_regression")->info.sheriffDetectsBug,
              false);
}

} // namespace
} // namespace laser::workloads
