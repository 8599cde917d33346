/**
 * @file
 * Shared helpers for the per-table/figure bench harnesses. Every harness
 * prints a "paper vs measured" table: absolute equality with the paper's
 * testbed is not expected (our substrate is a simulator), the *shape* is
 * (see EXPERIMENTS.md).
 */

#ifndef LASER_BENCH_COMMON_H
#define LASER_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/accuracy.h"
#include "core/experiment.h"
#include "core/sweep_runner.h"
#include "obs/export.h"
#include "util/stats.h"
#include "util/table.h"
#include "workloads/workload.h"

namespace laser::bench {

/** Print a harness banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n=== %s ===\n(reproduces %s of LASER, HPCA 2016; "
                "shapes, not absolute numbers)\n\n",
                title.c_str(), paper_ref.c_str());
}

/** "-" for zero counts, matching the paper's table style. */
inline std::string
dashIfZero(int v)
{
    return v == 0 ? "-" : std::to_string(v);
}

/**
 * Sweep-runner configuration for the capture-once/replay-many benches:
 * LASER_TRACE_CACHE names an on-disk trace-cache directory shared
 * across invocations (a repeat run then performs zero simulations);
 * unset keeps the cache in memory for this invocation only.
 */
inline core::SweepRunner::Config
sweepConfig()
{
    core::SweepRunner::Config cfg;
    if (const char *dir = std::getenv("LASER_TRACE_CACHE"))
        cfg.cacheDir = dir;
    return cfg;
}

/**
 * Write a bench's telemetry artifacts (BENCH_<name>.json plus the
 * span trace) when LASER_METRICS_OUT is set, folding
 * in the sweep runner's cache counters, and tell the user where they
 * went.
 * Benches without a sweep runner pass nullptr.
 */
inline void
writeTelemetry(obs::BenchReport &report, const core::SweepStats *stats)
{
    if (stats)
        report.setSweep(stats->machineRuns, stats->memoryCacheHits,
                        stats->diskCacheHits);
    if (report.write())
        std::printf("\ntelemetry: wrote %s (+ TRACE artifact)\n",
                    report.path().c_str());
}

/** Paper's Figure 10 LASER bars where readable (by workload name). */
inline const std::map<std::string, double> &
paperLaserOverheads()
{
    static const std::map<std::string, double> m = {
        {"kmeans", 1.22},         {"x264", 1.15},
        {"water_nsquared", 1.10}, {"linear_regression", 0.84},
        {"histogram'", 0.81},     {"lu_ncb", 0.70},
    };
    return m;
}

} // namespace laser::bench

#endif // LASER_BENCH_COMMON_H
