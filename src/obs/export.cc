#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "obs/span.h"

extern char **environ; // hashed into RunContext::configHash

namespace laser::obs {

namespace {

std::uint64_t
fnv1a(std::uint64_t h, const char *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * LASER_* variables that name telemetry *destinations* rather than
 * affecting what a run computes; excluded from the config hash so runs
 * written to different metrics/trace paths still compare as the same
 * configuration.
 */
bool
isTelemetryDestination(const char *env)
{
    static const char *const kPrefixes[] = {
        "LASER_METRICS_OUT=",
        "LASER_TRACE_EVENTS=",
    };
    for (const char *prefix : kPrefixes)
        if (std::strncmp(env, prefix, std::strlen(prefix)) == 0)
            return true;
    return false;
}

bool
writeFileAtomicEnough(const std::string &path, const std::string &body)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
}

/** Ensure the metrics dir exists; "" when telemetry is off. */
std::string
preparedMetricsDir()
{
    const std::string dir = metricsDir();
    if (dir.empty())
        return dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    // An uncreatable directory degrades to failed writes below.
    return dir;
}

/** Resolved span-trace path (LASER_TRACE_EVENTS overrides the dir). */
std::string
traceEventPath(const std::string &dir, const std::string &name)
{
    const char *override_path = std::getenv("LASER_TRACE_EVENTS");
    return override_path ? override_path
                         : dir + "/TRACE_" + name + ".json";
}

} // namespace

std::string
metricsDir()
{
    const char *dir = std::getenv("LASER_METRICS_OUT");
    return dir ? dir : "";
}

RunContext
currentRunContext()
{
    RunContext ctx;

    const char *sha = std::getenv("LASER_GIT_SHA");
    if (!sha || !*sha)
        sha = std::getenv("GITHUB_SHA");
    ctx.gitSha = (sha && *sha) ? sha : "unknown";

    char host[256] = {};
    if (gethostname(host, sizeof host - 1) == 0 && host[0] != '\0')
        ctx.hostname = host;
    else
        ctx.hostname = "unknown";

    // Configuration fingerprint: FNV-1a over the sorted LASER_*
    // environment (minus telemetry destinations), so two runs hash
    // equal exactly when every behavior-affecting knob matches.
    std::vector<std::string> vars;
    for (char **env = environ; env && *env; ++env)
        if (std::strncmp(*env, "LASER_", 6) == 0 &&
            !isTelemetryDestination(*env))
            vars.emplace_back(*env);
    std::sort(vars.begin(), vars.end());
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::string &v : vars) {
        h = fnv1a(h, v.data(), v.size());
        h = fnv1a(h, "\n", 1);
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    ctx.configHash = hex;

    ctx.unixTime = static_cast<std::int64_t>(std::time(nullptr));
    return ctx;
}

double
processCpuSeconds()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool
exportProcessMetrics(const std::string &name, const Registry &reg)
{
    const std::string dir = preparedMetricsDir();
    if (dir.empty())
        return false;

    const Snapshot snap = reg.snapshot();
    bool ok = writeFileAtomicEnough(dir + "/METRICS_" + name + ".json",
                                    snap.toJson().dump(2) + "\n");

    const SpanCollector &spans = SpanCollector::global();
    if (spans.eventCount() > 0)
        ok &= spans.writeFile(traceEventPath(dir, name));
    return ok;
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now())
{
    // Arm span collection for the whole bench run even if the collector
    // was created before the environment was inspected (tests).
    if (!metricsDir().empty())
        SpanCollector::global().enable();
}

void
BenchReport::setSweep(std::uint64_t machine_runs,
                      std::uint64_t memory_cache_hits,
                      std::uint64_t disk_cache_hits)
{
    haveSweep_ = true;
    machineRuns_ = machine_runs;
    memoryCacheHits_ = memory_cache_hits;
    diskCacheHits_ = disk_cache_hits;
}

std::string
BenchReport::path() const
{
    const std::string dir = metricsDir();
    if (dir.empty())
        return "";
    return dir + "/BENCH_" + name_ + ".json";
}

bool
BenchReport::write(const Registry &reg)
{
    const std::string dir = preparedMetricsDir();
    if (dir.empty())
        return false;

    Json root = Json::object();
    root.set("schema_version", Json(kBenchSchemaVersion));
    root.set("bench", Json(name_));
    root.set("wall_seconds",
             Json(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count()));
    const RunContext ctx = currentRunContext();
    Json run = Json::object();
    run.set("git_sha", Json(ctx.gitSha));
    run.set("config_hash", Json(ctx.configHash));
    run.set("hostname", Json(ctx.hostname));
    run.set("unix_time", Json(ctx.unixTime));
    run.set("cpu_seconds", Json(processCpuSeconds()));
    root.set("run", std::move(run));
    Json sweep = Json::object();
    sweep.set("machine_runs", Json(machineRuns_));
    sweep.set("memory_cache_hits", Json(memoryCacheHits_));
    sweep.set("disk_cache_hits", Json(diskCacheHits_));
    root.set("sweep", std::move(sweep));
    root.set("results", results_);
    Json artifacts = Json::object();
    artifacts.set("bench_json", Json(path()));
    artifacts.set("metrics_json",
                  Json(dir + "/METRICS_" + name_ + ".json"));
    if (SpanCollector::global().eventCount() > 0)
        artifacts.set("trace_json", Json(traceEventPath(dir, name_)));
    root.set("artifacts", std::move(artifacts));
    root.set("metrics", reg.snapshot().toJson());

    const bool ok =
        writeFileAtomicEnough(path(), root.dump(2) + "\n");
    exportProcessMetrics(name_, reg);
    return ok;
}

} // namespace laser::obs
