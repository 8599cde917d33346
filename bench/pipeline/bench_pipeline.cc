/**
 * @file
 * bench_pipeline: the repository's end-to-end and per-layer benchmark.
 *
 *   bench_pipeline --workload W --seed S [--seconds N] [--trace FILE]
 *                  [--work-dir DIR]
 *
 * Runs workload W (capture, capture_dragon, reanalyze, repair; see
 * items.h and README.md) after a set-up, repeated at least three times
 * and for at least two seconds (setup_s is the median), as passes of
 * fixed work until N seconds have elapsed, and prints one
 * "W METRIC VALUE UNIT" line per metric. Every pass does the same work:
 * the timed numbers are medians over passes, and every pass must
 * reproduce the first pass's output digest.
 *
 * With --trace the run spends half its time untraced and half on the
 * split-up path, which times each module's public calls (layers.h),
 * then adds small probes for the layers the workload does not call,
 * prints the per-layer metrics and writes every span to FILE as a Chrome
 * trace. End-to-end metrics always come from untraced passes.
 *
 * The model is unvalidated against hardware: every time here is host
 * time except sim.gcycles, which is simulated time.
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "items.h"
#include "layers.h"
#include "obs/export.h"
#include "obs/span.h"
#include "util/stats.h"

using namespace laser;
using namespace laser::benchpipe;

namespace {

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string traceFile;
    std::string workDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_pipeline: %s\n"
                 "usage: bench_pipeline --workload "
                 "capture|capture_dragon|reanalyze|repair --seed S\n"
                 "                      [--seconds N] [--trace FILE] "
                 "[--work-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            opt.traceFile = value;
        } else if (arg == "--work-dir") {
            opt.workDir = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Passes of fixed work until @p seconds have passed (at least three). */
std::vector<PassResult>
runPhase(Workload &workload, bool traced, double seconds)
{
    constexpr std::size_t kMinPasses = 3;
    std::vector<PassResult> passes;
    const Clock::time_point start = Clock::now();
    while (passes.size() < kMinPasses || secondsSince(start) < seconds) {
        passes.push_back(workload.runPass(traced));
        if (traced)
            addPass();
    }
    return passes;
}

/** Totals and failures over everything the run attempted. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    note(std::string error)
    {
        if (errors.size() < 20)
            errors.push_back(std::move(error));
    }

    /** Fold in passes that must all reproduce @p digest. */
    void
    addPasses(const std::vector<PassResult> &passes, std::uint64_t digest)
    {
        for (const PassResult &pass : passes) {
            attempted += pass.attempted;
            failed += pass.failed;
            for (const std::string &e : pass.errors)
                note(e);
            if (pass.failed == 0 && pass.digest != digest) {
                ++failed;
                note("a pass's output digest differs from the first "
                     "pass's");
            }
        }
    }

    void
    addVerify(const VerifyResult &v)
    {
        attempted += v.checks;
        failed += v.failed;
        for (const std::string &e : v.errors)
            note(e);
    }
};

class Printer
{
  public:
    Printer(std::string workload, obs::BenchReport *report)
        : workload_(std::move(workload)), report_(report)
    {
    }

    void
    metric(const std::string &name, double value, const char *unit)
    {
        std::printf("%s %s %.12g %s\n", workload_.c_str(), name.c_str(),
                    value, unit);
        report_->results().set(name, obs::Json(value));
    }

    void
    text(const std::string &name, const std::string &value,
         const char *unit)
    {
        std::printf("%s %s %s %s\n", workload_.c_str(), name.c_str(),
                    value.c_str(), unit);
        report_->results().set(name, obs::Json(value));
    }

  private:
    std::string workload_;
    obs::BenchReport *report_;
};

std::vector<double>
collect(const std::vector<PassResult> &passes, double PassResult::*field)
{
    std::vector<double> out;
    for (const PassResult &pass : passes)
        out.push_back(pass.*field);
    return out;
}

/** capture_dragon's items are captures too. */
Kind
itemKind(Kind kind)
{
    return kind == Kind::CaptureDragon ? Kind::Capture : kind;
}

/**
 * The traced run's probes of layers the workload does not call: one
 * small plain pass and one traced pass of each other kind of item, then
 * the native and protocol probes.
 */
void
runProbes(Kind kind, const Options &opt, Tally *tally)
{
    for (Kind probe : {Kind::Capture, Kind::Reanalyze, Kind::Repair}) {
        if (probe == itemKind(kind))
            continue;
        const std::unique_ptr<Workload> w =
            makeWorkload(probe, opt.seed, Size{}, opt.workDir);
        w->setup();
        const std::vector<PassResult> plain{w->runPass(false)};
        tally->addPasses(plain, plain.front().digest);
        tally->addPasses({w->runPass(true)}, plain.front().digest);
    }
    probeSimAndProtocols(opt.seed);
}

void
printLayers(Printer &out, const std::vector<PassResult> &plain,
            const std::vector<PassResult> &split)
{
    for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
        const Layer layer = static_cast<Layer>(i);
        const std::optional<double> value = layerValue(layer);
        if (!value)
            throw std::logic_error(std::string("layer never timed: ") +
                                   layerInfo(layer).metric);
        out.metric(layerInfo(layer).metric, *value, layerInfo(layer).unit);
    }
    const std::optional<std::vector<double>> phases = sweepPhases();
    if (!phases)
        throw std::logic_error("no threshold sweep ran");
    out.metric("core.sweep_capture_s", (*phases)[0], "s");
    out.metric("core.sweep_digest_s", (*phases)[1], "s");
    out.metric("core.sweep_replay_s", (*phases)[2], "s");

    const double wall = median(collect(plain, &PassResult::wallSeconds));
    const double cpu = median(collect(plain, &PassResult::cpuSeconds));
    out.metric("util.pool_busy_frac", cpu / (wall * (poolWorkers() + 1)),
               "frac");
    out.metric("trace_overhead_frac",
               median(collect(split, &PassResult::wallSeconds)) / wall - 1.0,
               "frac");

    const double records = countValue(Count::PebsRecords);
    struct CountMetric
    {
        const char *name;
        double value;
        const char *unit;
    };
    for (const CountMetric &c : {
             CountMetric{"sim.instructions",
                         countValue(Count::SimInstructions), "count"},
             CountMetric{"sim.hitm_events", countValue(Count::SimHitmEvents),
                         "count"},
             CountMetric{"sim.lines_touched",
                         countValue(Count::SimLinesTouched), "count"},
             CountMetric{"sim.gcycles", countValue(Count::SimCycles) * 1e-9,
                         "Gcycles"},
             CountMetric{"sim.ssb_flushes", countValue(Count::SimSsbFlushes),
                         "count"},
             CountMetric{"pebs.records", records, "count"},
             CountMetric{"trace.bytes_per_record",
                         records > 0 ? countValue(Count::TraceBytes) / records
                                     : 0.0,
                         "B"},
             CountMetric{"detect.rate_events",
                         countValue(Count::DetectRateEvents), "count"},
             CountMetric{"detect_fn", countValue(Count::DetectFn), "count"},
             CountMetric{"detect_fp", countValue(Count::DetectFp), "count"},
             CountMetric{"repair.applied", countValue(Count::RepairApplied),
                         "count"},
         })
        out.metric(c.name, c.value, c.unit);
}

int
run(const Options &opt)
{
    Kind kind;
    if (!parseKind(opt.workload, &kind))
        usage(("unknown workload " + opt.workload).c_str());
    const bool traced = !opt.traceFile.empty();
    obs::BenchReport telemetry(std::string("pipeline_") + kindName(kind));
    std::filesystem::create_directories(opt.workDir);

    const std::unique_ptr<Workload> workload =
        makeWorkload(kind, opt.seed, fullSize(kind), opt.workDir);
    // At least three set-ups and two seconds of them: a 0.2 s set-up's
    // median over three samples shifts by a third between runs.
    constexpr std::size_t kMinSetups = 3;
    constexpr double kMinSetupSeconds = 2.0;
    std::vector<double> setups;
    const Clock::time_point setup_phase = Clock::now();
    while (setups.size() < kMinSetups ||
           secondsSince(setup_phase) < kMinSetupSeconds) {
        const Clock::time_point start = Clock::now();
        workload->setup();
        setups.push_back(secondsSince(start));
    }

    Tally tally;
    const double phase_seconds = traced ? opt.seconds / 2 : opt.seconds;
    const std::vector<PassResult> plain =
        runPhase(*workload, false, phase_seconds);
    const std::uint64_t digest = plain.front().digest;
    tally.addPasses(plain, digest);

    std::vector<PassResult> split;
    if (traced) {
        calibrateTimedSink();
        obs::SpanCollector::global().enable();
        setBank(Bank::Workload);
        split = runPhase(*workload, true, phase_seconds);
        tally.addPasses(split, digest);
        setBank(Bank::Probe);
        runProbes(kind, opt, &tally);
        obs::SpanCollector::global().disable();
    }

    const VerifyResult verified = workload->verify();
    tally.addVerify(verified);
    Fnv output;
    output.add(digest);
    output.add(verified.digest);

    std::vector<double> item_ms;
    for (const PassResult &pass : plain)
        item_ms.insert(item_ms.end(), pass.itemMs.begin(), pass.itemMs.end());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    Printer out(kindName(kind), &telemetry);
    out.metric("wall_s", median(collect(plain, &PassResult::wallSeconds)),
               "s");
    out.metric("cpu_s", median(collect(plain, &PassResult::cpuSeconds)), "s");
    out.metric("item_p50_ms", quantile(item_ms, 0.5), "ms");
    out.metric("item_p90_ms", quantile(item_ms, 0.9), "ms");
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB");
    if (traced)
        printLayers(out, plain, split);
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016" PRIx64, output.value());
    out.text("output_digest", hex, "hex");
    out.metric("passes", double(plain.size()), "count");
    out.metric("item_samples", double(item_ms.size()), "count");
    out.metric("ops", double(tally.attempted), "count");
    out.metric("ops_failed", double(tally.failed), "count");
    for (const std::string &e : tally.errors)
        std::fprintf(stderr, "bench_pipeline: FAILED: %s\n", e.c_str());

    if (traced && !obs::SpanCollector::global().writeFile(opt.traceFile))
        throw std::runtime_error("cannot write " + opt.traceFile);
    telemetry.write();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.workDir.empty())
        opt.workDir =
            (std::filesystem::temp_directory_path() / "bench_pipeline")
                .string();
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
        return 1;
    }
}
