/**
 * @file
 * Integration tests for the full LASER system: the accuracy evaluator,
 * the experiment runner's schemes, and the headline end-to-end
 * properties (zero false negatives across the suite, repair behaviour,
 * Sheriff compatibility/costs, VTune baseline), and golden results of
 * the LASER and Sheriff-Protect runs on the buggy programs.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "core/accuracy.h"
#include "core/experiment.h"
#include "machine_digest.h"

namespace laser::core {
namespace {

// ---------------------------------------------------------------------
// Accuracy evaluator
// ---------------------------------------------------------------------

workloads::WorkloadInfo
infoWithBug()
{
    workloads::WorkloadInfo info;
    info.name = "demo";
    info.bugs.push_back({"a.c:50", workloads::BugType::FalseSharing,
                         "demo bug", {"a.c:53"}});
    return info;
}

TEST(Accuracy, ParseLocation)
{
    std::string file;
    std::uint32_t line = 0;
    ASSERT_TRUE(parseLocation("foo.c:123", &file, &line));
    EXPECT_EQ(file, "foo.c");
    EXPECT_EQ(line, 123u);
    EXPECT_FALSE(parseLocation("nofile", &file, &line));
}

TEST(Accuracy, MatchWithinTolerance)
{
    EXPECT_TRUE(locationsMatch("a.c:50", "a.c:50"));
    EXPECT_TRUE(locationsMatch("a.c:51", "a.c:50")); // skid tolerance
    EXPECT_TRUE(locationsMatch("a.c:49", "a.c:50"));
    EXPECT_FALSE(locationsMatch("a.c:52", "a.c:50"));
    EXPECT_FALSE(locationsMatch("b.c:50", "a.c:50"));
}

TEST(Accuracy, CountsFnAndFp)
{
    const workloads::WorkloadInfo info = infoWithBug();
    // Bug found via a related line; one spurious line.
    AccuracyResult r = evaluateAccuracy(info, {"a.c:53", "z.c:9"});
    EXPECT_EQ(r.falseNegatives, 0);
    EXPECT_EQ(r.falsePositives, 1);
    EXPECT_EQ(r.fpLocations[0], "z.c:9");

    // Nothing reported: one FN, no FPs.
    r = evaluateAccuracy(info, {});
    EXPECT_EQ(r.falseNegatives, 1);
    EXPECT_EQ(r.falsePositives, 0);
    EXPECT_EQ(r.missedBugs[0], "a.c:50");
}

// ---------------------------------------------------------------------
// End-to-end system properties
// ---------------------------------------------------------------------

struct Runner
{
    ExperimentRunner runner;
};

TEST(System, LaserFindsEveryKnownBug)
{
    // The headline Table 1 property: zero false negatives across the
    // whole suite at the default 1K HITMs/sec threshold.
    ExperimentRunner runner;
    for (const auto *w : workloads::buggyWorkloads()) {
        RunResult laser = runner.run(*w, Scheme::Laser);
        AccuracyResult acc = evaluateAccuracy(
            w->info, reportLocations(laser.detection));
        EXPECT_EQ(acc.falseNegatives, 0)
            << w->info.name << " missed: "
            << (acc.missedBugs.empty() ? "?" : acc.missedBugs[0]);
    }
}

TEST(System, CleanWorkloadsStayQuiet)
{
    // Contention-free kernels must produce empty reports.
    ExperimentRunner runner;
    for (const char *name :
         {"blackscholes", "swaptions", "matrix_multiply", "histogram",
          "string_match", "pca"}) {
        RunResult laser =
            runner.run(*workloads::findWorkload(name), Scheme::Laser);
        EXPECT_TRUE(laser.detection.lines.empty()) << name;
        EXPECT_FALSE(laser.detection.repairRequested) << name;
    }
}

TEST(System, LaserOverheadIsLow)
{
    // Figure 10's headline: ~2% geomean. Check a representative
    // no-contention workload stays within noise.
    ExperimentRunner runner;
    const auto *w = workloads::findWorkload("blackscholes");
    RunResult native = runner.run(*w, Scheme::Native);
    RunResult laser = runner.run(*w, Scheme::LaserDetectOnly);
    const double norm =
        double(laser.runtimeCycles) / double(native.runtimeCycles);
    EXPECT_LT(norm, 1.05);
}

TEST(System, RepairTriggersForLinearRegressionNotDedup)
{
    ExperimentRunner runner;
    RunResult lr = runner.run(*workloads::findWorkload(
                                  "linear_regression"),
                              Scheme::Laser);
    EXPECT_TRUE(lr.detection.repairRequested);
    EXPECT_TRUE(lr.repairApplied) << lr.plan.reason;

    // dedup's contention is true sharing: repair must not fire
    // (Section 4.3: typing gates fruitless repair attempts).
    RunResult dd =
        runner.run(*workloads::findWorkload("dedup"), Scheme::Laser);
    EXPECT_FALSE(dd.repairApplied);
}

TEST(System, RepairImprovesHistogramAlt)
{
    ExperimentRunner runner;
    const auto *w = workloads::findWorkload("histogram'");
    RunResult laser = runner.run(*w, Scheme::Laser);
    EXPECT_TRUE(laser.repairApplied) << laser.plan.reason;
    EXPECT_LT(laser.repairTriggerFraction, 0.6);
}

TEST(System, ManualFixesSpeedUpBuggyWorkloads)
{
    ExperimentRunner runner;
    for (const char *name :
         {"linear_regression", "histogram'", "dedup", "lu_ncb"}) {
        const auto *w = workloads::findWorkload(name);
        RunResult native = runner.run(*w, Scheme::Native);
        RunResult fixed = runner.run(*w, Scheme::ManualFix);
        EXPECT_LT(fixed.runtimeCycles, native.runtimeCycles) << name;
    }
}

TEST(System, VTuneCostsMoreThanLaser)
{
    ExperimentRunner runner;
    std::vector<double> laser_norm, vtune_norm;
    for (const char *name :
         {"string_match", "histogram'", "bodytrack", "blackscholes"}) {
        const auto *w = workloads::findWorkload(name);
        RunResult native = runner.run(*w, Scheme::Native);
        laser_norm.push_back(
            double(runner.run(*w, Scheme::LaserDetectOnly).runtimeCycles) /
            double(native.runtimeCycles));
        vtune_norm.push_back(
            double(runner.run(*w, Scheme::VTune).runtimeCycles) /
            double(native.runtimeCycles));
    }
    for (std::size_t i = 0; i < laser_norm.size(); ++i)
        EXPECT_GT(vtune_norm[i], laser_norm[i]);
}

TEST(System, SheriffCompatibilityMatrixEnforced)
{
    ExperimentRunner runner;
    RunResult crash = runner.run(*workloads::findWorkload("kmeans"),
                                 Scheme::SheriffDetect);
    EXPECT_TRUE(crash.crashed);
    RunResult incompat = runner.run(*workloads::findWorkload("dedup"),
                                    Scheme::SheriffProtect);
    EXPECT_TRUE(incompat.crashed);
    RunResult works = runner.run(
        *workloads::findWorkload("linear_regression"),
        Scheme::SheriffProtect);
    EXPECT_FALSE(works.crashed);
}

TEST(System, SheriffProtectFixesFalseSharingItCannotDetect)
{
    // Figure 14's irony: both Sheriff schemes fix linear_regression's
    // false sharing (threads-as-processes isolates the stores) even
    // though Sheriff-Detect reports nothing.
    ExperimentRunner runner;
    const auto *w = workloads::findWorkload("linear_regression");
    RunResult sdet = runner.run(*w, Scheme::SheriffDetect);
    EXPECT_TRUE(sdet.sheriff.reportedSites.empty());
    RunResult sprot = runner.run(*w, Scheme::SheriffProtect);
    EXPECT_EQ(sprot.stats.hitmTotal(), 0u);
}

TEST(System, SheriffSlowsSyncHeavyWorkloads)
{
    // water_nsquared's per-sync page diffing dominates (Figure 14).
    ExperimentRunner runner;
    const auto *w = workloads::findWorkload("water_nsquared");
    RunResult native = runner.run(*w, Scheme::Native);
    RunResult sprot = runner.run(*w, Scheme::SheriffProtect);
    EXPECT_GT(double(sprot.runtimeCycles) / double(native.runtimeCycles),
              2.0);
}

TEST(System, SheriffReportsAllocationSiteForReverseIndex)
{
    ExperimentRunner runner;
    RunResult sdet = runner.run(
        *workloads::findWorkload("reverse_index"), Scheme::SheriffDetect);
    ASSERT_FALSE(sdet.crashed);
    ASSERT_EQ(sdet.sheriff.reportedSites.size(), 1u);
    // The allocation site, not the contending code (Section 7.1).
    EXPECT_EQ(sdet.sheriff.reportedSites[0], "malloc_wrapper.c:12");
}

/**
 * Golden results per buggy program: the LASER run (monitored phase, and
 * the SSB-instrumented re-run when repair fires) and the Sheriff-Protect
 * run (the threadsAsProcesses machine; 0 cycles when Sheriff crashes or
 * cannot run the program). laserStats is statsDigest() of the run's
 * MachineStats.
 */
struct SchemeGolden
{
    const char *workload;
    std::uint64_t laserRuntimeCycles;
    bool laserRepairApplied;
    std::uint64_t laserStats;
    std::uint64_t sheriffProtectRuntimeCycles;
};

constexpr SchemeGolden kSchemeGoldens[] = {
    {"bodytrack", 492948ULL, false, 0xf2f2562d023b6d4cULL, 0ULL},
    {"dedup", 448923ULL, false, 0xfc8e68151870cfe8ULL, 0ULL},
    {"histogram'", 1643830ULL, true, 0x27b8aa4d5dd0ad3fULL, 364025ULL},
    {"kmeans", 518678ULL, false, 0xaf676b4224aa0a97ULL, 0ULL},
    {"linear_regression", 647815ULL, true, 0x43b8a00f39707564ULL, 126139ULL},
    {"lu_ncb", 473824ULL, false, 0xf1798a15c5f62e86ULL, 386975ULL},
    {"reverse_index", 397352ULL, false, 0xf79a4d624aad6438ULL, 143627ULL},
    {"streamcluster", 369636ULL, true, 0x2cf231bb0cb45467ULL, 0ULL},
    {"volrend", 527828ULL, false, 0x1cfdaf0ef6355656ULL, 0ULL},
};

TEST(System, BuggyProgramRunsMatchGoldens)
{
    const auto buggy = workloads::buggyWorkloads();
    ASSERT_EQ(buggy.size(), std::size(kSchemeGoldens));
    ExperimentRunner runner;
    for (const SchemeGolden &golden : kSchemeGoldens) {
        const workloads::WorkloadDef *w =
            workloads::findWorkload(golden.workload);
        ASSERT_NE(w, nullptr) << golden.workload;
        EXPECT_FALSE(w->info.bugs.empty()) << golden.workload;
        const RunResult laser = runner.run(*w, Scheme::Laser);
        const RunResult sheriff = runner.run(*w, Scheme::SheriffProtect);
        EXPECT_EQ(laser.runtimeCycles, golden.laserRuntimeCycles)
            << golden.workload;
        EXPECT_EQ(laser.repairApplied, golden.laserRepairApplied)
            << golden.workload;
        EXPECT_EQ(sim::statsDigest(laser.stats), golden.laserStats)
            << golden.workload << " 0x" << std::hex
            << sim::statsDigest(laser.stats);
        EXPECT_EQ(sheriff.runtimeCycles,
                  golden.sheriffProtectRuntimeCycles)
            << golden.workload;
    }
}

TEST(System, SchemeNamesArePrintable)
{
    EXPECT_STREQ(schemeName(Scheme::Laser), "laser");
    EXPECT_STREQ(schemeName(Scheme::VTune), "vtune");
    EXPECT_STREQ(schemeName(Scheme::SheriffProtect), "sheriff-protect");
}

} // namespace
} // namespace laser::core
