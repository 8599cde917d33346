/**
 * @file
 * Telemetry export: span traces and per-bench machine-readable
 * reports, both keyed off one environment switch.
 *
 * LASER_METRICS_OUT=<dir> makes every tool and bench drop artifacts
 * into <dir> (created on demand):
 *
 *   TRACE_<name>.json    Chrome trace-event spans (when any were
 *                        collected; LASER_TRACE_EVENTS=<file> overrides
 *                        the path)
 *   BENCH_<name>.json    bench telemetry (BenchReport below)
 *
 * The BENCH schema (validated by tools/bench_schema_check, documented
 * in EXPERIMENTS.md):
 *
 *   {
 *     "schema_version": 3,
 *     "bench": "<name>",
 *     "wall_seconds": <number >= 0>,
 *     "run": {"git_sha": "...", "config_hash": "...",    // v2: run
 *             "hostname": "...", "unix_time": N,         // context
 *             "cpu_seconds": <number >= 0>},             // (RunContext)
 *     "sweep": {"machine_runs": N, "memory_cache_hits": N,
 *               "disk_cache_hits": N},          // all integers >= 0
 *     "results": { ... bench-specific scalars/arrays ... },
 *     "artifacts": { ... resolved artifact paths ... }
 *   }
 *
 *
 * Without LASER_METRICS_OUT in the environment the whole layer is
 * inert: write() returns false and touches no files.
 */

#ifndef LASER_OBS_EXPORT_H
#define LASER_OBS_EXPORT_H

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/json.h"

namespace laser::obs {

/** Current BENCH_*.json schema version. */
inline constexpr int kBenchSchemaVersion = 3;

/** $LASER_METRICS_OUT, or "" when telemetry is off. */
std::string metricsDir();

/** Identity of one run, stamped into every BENCH document. */
struct RunContext
{
    std::string gitSha;     ///< $LASER_GIT_SHA / $GITHUB_SHA / "unknown"
    std::string configHash; ///< 16-hex FNV-1a over the LASER_* environment
    std::string hostname;   ///< gethostname(), "unknown" on failure
    std::int64_t unixTime = 0; ///< seconds since the epoch
};

/** Best-effort context for the current process and environment. */
RunContext currentRunContext();

/** Cumulative process CPU seconds, user + system (getrusage). */
double processCpuSeconds();

/**
 * Machine-readable record of one bench invocation. Construct at the
 * top of main() (wall time starts here), fill results() with the
 * numbers the human table prints, then write() at the end:
 *
 *     obs::BenchReport report("fig09_threshold_sweep");
 *     ...
 *     report.results().set("replay_speedup", obs::Json(speedup));
 *     report.setSweep(runs, memHits, diskHits);
 *     report.write();
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name);

    const std::string &name() const { return name_; }

    /** Mutable bench-specific section of the report. */
    Json &results() { return results_; }

    /** Cache/execution counters (core::SweepStats, field by field). */
    void setSweep(std::uint64_t machine_runs,
                  std::uint64_t memory_cache_hits,
                  std::uint64_t disk_cache_hits);

    /**
     * Write BENCH_<name>.json plus the TRACE_ artifact (when any spans
     * were collected). Returns true when every file was written (false
     * when LASER_METRICS_OUT is unset or on I/O error).
     */
    bool write();

    /** Path write() targets ("" when telemetry is disabled). */
    std::string path() const;

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    Json results_ = Json::object();
    std::uint64_t machineRuns_ = 0;
    std::uint64_t memoryCacheHits_ = 0;
    std::uint64_t diskCacheHits_ = 0;
};

} // namespace laser::obs

#endif // LASER_OBS_EXPORT_H
