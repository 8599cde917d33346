/**
 * @file
 * laser_trace: capture, inspect and replay analysis trace files.
 *
 *   laser_trace record <workload> [-o FILE] [--scheme S] [--sav N]
 *                      [--seed N] [--heap-shift N] [--threads N]
 *                      [--scale F] [--protocol P] [--line-bytes N]
 *       Run one simulation under a scheme (laser-detect, vtune,
 *       sheriff-detect, sheriff-protect, native) and persist its
 *       analysis-record stream + run metadata as a trace file.
 *       --threads must be in [1, 32] (the simulated machine's core
 *       limit) and --scale finite, positive and at most 16.
 *       --protocol selects the coherence backend (mesi, dragon) and
 *       --line-bytes the simulated cache-line size; both are part of
 *       the hashed configuration, so each combination gets its own
 *       trace-cache key.
 *
 *   laser_trace info FILE
 *       Print a trace's header, configuration and stats plus the
 *       compression report: per-column compressed/uncompressed bytes
 *       and block-index/seek statistics. Reads only the header, meta
 *       sections and index.
 *
 *   laser_trace replay FILE [--threshold F | --thresholds t1,t2,...]
 *                      [--shards N] [--cycles BEGIN:END]
 *       Re-run the trace's analysis offline — no simulation. A
 *       laser-detect trace is digested once, as N time-window shards
 *       in parallel (--shards, default 1), and every --thresholds entry
 *       is reported from that one digest; the reports do not depend on
 *       N. --cycles replays only the records in a cycle window,
 *       decoding only the blocks that overlap it (prints how many
 *       payload bytes the seek touched); it replays serially, so it
 *       cannot be combined with --shards. VTune and Sheriff traces
 *       replay through their own offline analyzers.
 *
 *   laser_trace sweep [--workloads a,b,...] [--thresholds t1,t2,...]
 *                     [--cache-dir DIR] [-j N] [--shards N]
 *                     [--protocol P] [--line-bytes N]
 *       Capture-once/replay-many threshold sweep over the bug database
 *       (Figure 9 style), fanned across cores, optionally backed by an
 *       on-disk trace cache shared between invocations. --protocol /
 *       --line-bytes sweep under a different coherence backend or
 *       cache geometry. -j is capped at the core count.
 *
 * Integer flags take decimal digits only and must fit the field they
 * set (--sav and --line-bytes 32 bits; -j and --shards INT_MAX;
 * --threads the range above); anything else is an error, never a
 * wrapped value.
 *
 * Every command honors LASER_METRICS_OUT=<dir>: on exit the invocation
 * is recorded there as BENCH_laser_trace_<command>.json plus the
 * TRACE_ artifact (paths printed after sweep/replay).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/accuracy.h"
#include "core/sweep_runner.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/span.h"
#include "sim/protocol.h"
#include "trace/capture.h"
#include "trace/columnar.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "util/table.h"
#include "workloads/workload.h"

using namespace laser;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: laser_trace <command> [options]\n"
        "  record <workload> [-o FILE] [--scheme S] [--sav N] [--seed N]\n"
        "                    [--heap-shift N] [--threads 1-32] [--scale F]\n"
        "                    [--protocol mesi|dragon] [--line-bytes N]\n"
        "  info FILE\n"
        "  replay FILE [--threshold F | --thresholds t1,t2,...]\n"
        "         [--shards N] [--cycles BEGIN:END]\n"
        "  sweep [--workloads a,b,...] [--thresholds t1,t2,...]\n"
        "        [--cache-dir DIR] [-j N] [--shards N]\n"
        "        [--protocol mesi|dragon] [--line-bytes N]\n");
    return 1;
}

bool
nextArg(int argc, char **argv, int *i, const char *flag, std::string *out)
{
    if (std::strcmp(argv[*i], flag) != 0)
        return false;
    if (*i + 1 >= argc) {
        std::fprintf(stderr, "laser_trace: %s needs a value\n", flag);
        std::exit(1);
    }
    *out = argv[++*i];
    return true;
}

/** Parse a full numeric value or exit with a clean error naming @p flag. */
double
numArg(const std::string &v, const char *flag)
{
    try {
        std::size_t pos = 0;
        const double d = std::stod(v, &pos);
        if (pos == v.size())
            return d;
    } catch (const std::exception &) {
    }
    std::fprintf(stderr, "laser_trace: %s: invalid numeric value \"%s\"\n",
                 flag, v.c_str());
    std::exit(1);
}

/**
 * Parse a decimal integer no larger than @p max, or exit with a clean
 * error naming @p flag. The whole value must be digits (no sign,
 * whitespace, fraction or exponent), so nothing is rounded or wrapped.
 */
std::uint64_t
uintArg(const std::string &v, const char *flag,
        std::uint64_t max = UINT64_MAX)
{
    errno = 0;
    char *end = nullptr;
    const bool digits =
        !v.empty() && std::isdigit(static_cast<unsigned char>(v[0]));
    const unsigned long long n =
        digits ? std::strtoull(v.c_str(), &end, 10) : 0;
    if (!digits || *end != '\0' || errno == ERANGE || n > max) {
        std::fprintf(stderr,
                     "laser_trace: %s: expected an integer in [0, %llu], "
                     "got \"%s\"\n",
                     flag, (unsigned long long)max, v.c_str());
        std::exit(1);
    }
    return n;
}

/** uintArg for int-typed flags: values above INT_MAX are rejected. */
int
intArg(const std::string &v, const char *flag)
{
    return static_cast<int>(uintArg(v, flag, INT_MAX));
}

/** uintArg for 32-bit fields. */
std::uint32_t
u32Arg(const std::string &v, const char *flag)
{
    return static_cast<std::uint32_t>(uintArg(v, flag, UINT32_MAX));
}

/** Apply a --protocol value to @p opt or exit with a clean error. */
void
protocolArg(const std::string &v, trace::CaptureOptions *opt)
{
    if (!sim::parseProtocol(v, &opt->protocol)) {
        std::fprintf(stderr,
                     "laser_trace: unknown protocol \"%s\" (expected "
                     "mesi or dragon)\n",
                     v.c_str());
        std::exit(1);
    }
}

/** Apply a --line-bytes value to @p opt or exit with a clean error. */
void
lineBytesArg(const std::string &v, trace::CaptureOptions *opt)
{
    opt->geometry.lineBytes = u32Arg(v, "--line-bytes");
    if (!opt->geometry.valid()) {
        std::fprintf(stderr,
                     "laser_trace: --line-bytes must be a power of two "
                     "in [8, 128], got \"%s\"\n",
                     v.c_str());
        std::exit(1);
    }
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/**
 * One-line cache summary from a runner's stats; silent when the runner
 * performed no captures.
 */
void
printCacheHitRate(const core::SweepStats &stats)
{
    if (stats.captures() == 0)
        return;
    std::printf("trace cache hit rate: %.1f%% (%llu captures: %llu "
                "simulated, %llu memory hits, %llu disk hits, %llu "
                "write failures)\n",
                1e2 * stats.cacheHitRate(),
                (unsigned long long)stats.captures(),
                (unsigned long long)stats.machineRuns,
                (unsigned long long)stats.memoryCacheHits,
                (unsigned long long)stats.diskCacheHits,
                (unsigned long long)stats.cacheWriteFailures);
    if (stats.cacheWriteFailures > 0)
        std::fprintf(stderr,
                     "laser_trace: warning: %llu trace-cache write "
                     "failure(s) — the cache dir is unwritable or full, "
                     "so repeat runs will re-simulate instead of "
                     "hitting disk\n",
                     (unsigned long long)stats.cacheWriteFailures);
}

void
printReport(const detect::DetectionReport &report)
{
    TablePrinter table({"location", "type", "records", "HITM/s", "ts/fs"});
    for (const detect::LineReport &line : report.lines) {
        std::string loc = line.location;
        if (line.library)
            loc += " (lib)";
        table.addRow({loc, detect::contentionTypeName(line.type),
                      std::to_string(line.records),
                      fmtDouble(line.hitmRate, 0),
                      std::to_string(line.tsEvents) + "/" +
                          std::to_string(line.fsEvents)});
    }
    if (report.lines.empty())
        std::printf("(no lines above the rate threshold)\n");
    else
        std::fputs(table.render().c_str(), stdout);
    std::printf("records: %llu total, %llu dropped by PC filter, %llu "
                "stack-data; %.2f represented seconds; repair %s\n",
                (unsigned long long)report.totalRecords,
                (unsigned long long)report.droppedPcFilter,
                (unsigned long long)report.droppedStackData,
                report.seconds,
                report.repairRequested ? "requested" : "not requested");
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string name = argv[2];
    const workloads::WorkloadDef *def = workloads::findWorkload(name);
    if (!def) {
        std::fprintf(stderr, "laser_trace: unknown workload \"%s\"\n",
                     name.c_str());
        return 1;
    }

    // Resolve --scheme first (wherever it appears) so its canonical
    // defaults never clobber other flags: every remaining flag then
    // applies on top, regardless of order on the command line.
    trace::CaptureOptions opt;
    std::string v;
    for (int i = 3; i < argc; ++i) {
        if (!nextArg(argc, argv, &i, "--scheme", &v))
            continue;
        if (v != "laser-detect" && v != "vtune" &&
                v != "sheriff-detect" && v != "sheriff-protect" &&
                v != "native") {
            std::fprintf(stderr, "laser_trace: unknown scheme \"%s\"\n",
                         v.c_str());
            return 1;
        }
        opt = trace::CaptureOptions::forScheme(v);
    }

    std::string out_path = name + trace::kTraceExtension;
    for (int i = 3; i < argc; ++i) {
        if (nextArg(argc, argv, &i, "-o", &v))
            out_path = v;
        else if (nextArg(argc, argv, &i, "--scheme", &v))
            ; // handled above
        else if (nextArg(argc, argv, &i, "--sav", &v))
            opt.sav = u32Arg(v, "--sav");
        else if (nextArg(argc, argv, &i, "--seed", &v))
            opt.machineSeed = uintArg(v, "--seed");
        else if (nextArg(argc, argv, &i, "--heap-shift", &v))
            opt.heapShift = uintArg(v, "--heap-shift");
        else if (nextArg(argc, argv, &i, "--threads", &v))
            opt.numThreads = intArg(v, "--threads");
        else if (nextArg(argc, argv, &i, "--scale", &v))
            opt.scale = numArg(v, "--scale");
        else if (nextArg(argc, argv, &i, "--protocol", &v))
            protocolArg(v, &opt);
        else if (nextArg(argc, argv, &i, "--line-bytes", &v))
            lineBytesArg(v, &opt);
        else
            return usage();
    }
    if (!sim::validCoreCount(opt.numThreads)) {
        std::fprintf(stderr,
                     "laser_trace: --threads must be in [1, %d], got %d\n",
                     sim::kMaxCores, opt.numThreads);
        return 1;
    }
    if (!workloads::validScale(opt.scale)) {
        std::fprintf(stderr,
                     "laser_trace: --scale must be finite, positive and "
                     "at most %g, got %g\n",
                     workloads::kMaxScale, opt.scale);
        return 1;
    }

    const trace::Trace t = trace::captureTrace(*def, opt);
    const trace::TraceStatus status = trace::writeTraceFile(t, out_path);
    if (status != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "laser_trace: writing %s failed: %s\n",
                     out_path.c_str(), trace::traceStatusName(status));
        return 2;
    }
    std::printf("captured %s (%s): %zu records, %llu cycles (%.2f "
                "represented seconds), %llu HITM events\n",
                name.c_str(), t.meta.scheme.c_str(), t.records.size(),
                (unsigned long long)t.meta.runtimeCycles,
                t.meta.stats.seconds(),
                (unsigned long long)t.meta.stats.hitmTotal());
    std::printf("wrote %s (config hash %016llx)\n", out_path.c_str(),
                (unsigned long long)trace::configHash(t.meta));
    return 0;
}

void
printMetaInfo(const char *path, const trace::TraceMeta &meta,
              std::size_t records)
{
    std::printf("trace file:    %s\n", path);
    std::printf("format:        LSRT v%u (columnar)\n", trace::kTraceVersion);
    std::printf("config hash:   %016llx\n",
                (unsigned long long)trace::configHash(meta));
    std::printf("workload:      %s (scheme %s)\n", meta.workload.c_str(),
                meta.scheme.c_str());
    std::printf("capture:       sav=%u threads=%d machine-seed=%llx "
                "heap-shift=%llu scale=%.2f\n",
                meta.pebs.sav, meta.build.numThreads,
                (unsigned long long)meta.machine.seed,
                (unsigned long long)meta.build.heapPerturbation,
                meta.build.scale);
    std::printf("coherence:     %s, %u-byte lines\n",
                sim::protocolName(meta.machine.protocol),
                meta.machine.geometry.lineBytes);
    std::printf("run:           %llu cycles (%.2f represented seconds), "
                "%llu instructions\n",
                (unsigned long long)meta.runtimeCycles,
                meta.stats.seconds(),
                (unsigned long long)meta.stats.instructions);
    std::printf("hitm:          %llu loads + %llu stores\n",
                (unsigned long long)meta.stats.hitmLoads,
                (unsigned long long)meta.stats.hitmStores);
    std::printf("records:       %zu\n", records);
    std::printf("maps text:     %zu bytes\n", meta.mapsText.size());
}

/** The compression/seek report: per-column bytes + block index. */
void
printColumnarInfo(const trace::TraceFile &file)
{
    namespace col = trace::columnar;
    const col::BlockIndex &index = file.index();
    const std::uint64_t records = index.records;

    std::printf("\nblock index:   %zu blocks, %s records/block avg",
                index.blocks.size(),
                index.blocks.empty()
                    ? "0"
                    : fmtCount(records / index.blocks.size()).c_str());
    if (!index.blocks.empty()) {
        const std::uint64_t span =
            index.blocks.back().lastCycle - index.blocks.front().firstCycle;
        std::printf(", seek granularity ~%s cycles",
                    fmtCount(span / index.blocks.size()).c_str());
    }
    std::printf("\n");
    std::printf("payload:       %s total, %s record blob (raw columns "
                "would be %s)\n",
                humanBytes(file.payloadBytes()).c_str(),
                humanBytes(file.recordBlobBytes()).c_str(),
                humanBytes(records * 8 * col::kColumnCount).c_str());

    TablePrinter table({"column", "compressed", "raw", "ratio"});
    for (std::size_t c = 0; c < col::kColumnCount; ++c) {
        std::uint64_t bytes = 0;
        for (const col::BlockInfo &b : index.blocks)
            bytes += b.columnBytes[c];
        const std::uint64_t raw = records * 8;
        table.addRow({col::columnName(c), humanBytes(bytes),
                      humanBytes(raw),
                      bytes > 0 ? fmtTimes(double(raw) / double(bytes))
                                : "-"});
    }
    std::fputs(table.render().c_str(), stdout);
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();

    // Header + meta + index only: no record decode needed for an
    // inventory view.
    trace::TraceFile file;
    const trace::TraceStatus status = file.open(argv[2]);
    if (status != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "laser_trace: %s: %s (%s)\n", argv[2],
                     trace::traceStatusName(status), file.error().c_str());
        return 2;
    }
    printMetaInfo(argv[2], file.meta(),
                  static_cast<std::size_t>(file.recordCount()));
    printColumnarInfo(file);
    return 0;
}

int
replayLaser(const trace::TraceReplayer &replayer,
            std::vector<double> thresholds, int shards)
{
    if (thresholds.empty())
        thresholds.push_back(1000.0); // the paper's default (Section 7.1)

    // One config-independent digest; every threshold's report is built
    // from it.
    trace::ParallelReplayer::Options opt;
    opt.shards = shards;
    const trace::ParallelReplayer digest(replayer, opt);
    const trace::TraceMeta &meta = replayer.meta();
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        detect::DetectorConfig cfg;
        cfg.rateThreshold = thresholds[i];
        cfg.sav = meta.pebs.sav;
        std::printf("replaying %s at %.0f HITMs/sec (sav %u, %zu "
                    "records)\n\n",
                    meta.workload.c_str(), thresholds[i], meta.pebs.sav,
                    static_cast<std::size_t>(
                        replayer.file().recordCount()));
        printReport(digest.replay(cfg));
        if (i + 1 < thresholds.size())
            std::printf("\n");
    }
    return 0;
}

int
replayVTuneTrace(const trace::TraceReplayer &replayer,
                 std::vector<double> thresholds)
{
    const trace::TraceMeta &meta = replayer.meta();
    // No explicit threshold replays at the capture-time configuration,
    // reproducing the live VTune report.
    if (thresholds.empty())
        thresholds.push_back(meta.vtune.rateThreshold);
    for (double threshold : thresholds) {
        baselines::VTuneConfig cfg = meta.vtune;
        cfg.rateThreshold = threshold;
        const baselines::VTuneReport report = replayer.replayVTune(cfg);
        std::printf("replaying %s (vtune) at %.0f HITMs/sec (%zu "
                    "records, %llu events)\n",
                    meta.workload.c_str(), threshold,
                    static_cast<std::size_t>(
                        replayer.file().recordCount()),
                    (unsigned long long)report.hitmEvents);
        TablePrinter table({"location", "records", "HITM/s"});
        for (const baselines::VTuneLine &line : report.lines)
            table.addRow({line.location, std::to_string(line.records),
                          fmtDouble(line.hitmRate, 0)});
        if (report.lines.empty())
            std::printf("(no lines above the rate threshold)\n");
        else
            std::fputs(table.render().c_str(), stdout);
    }
    return 0;
}

int
replaySheriffTrace(const trace::TraceReplayer &replayer)
{
    const baselines::SheriffReport report = replayer.replaySheriff();
    const std::uint64_t runtime = replayer.meta().runtimeCycles;
    std::printf("replaying %s (%s): %llu sync ops, %llu dirty pages "
                "committed\n",
                replayer.meta().workload.c_str(),
                replayer.meta().scheme.c_str(),
                (unsigned long long)report.syncOps,
                (unsigned long long)report.dirtyPagesCommitted);
    std::printf("commit cost %llu cycles; modeled runtime %llu cycles "
                "(%.2f represented seconds)\n",
                (unsigned long long)report.chargedCycles,
                (unsigned long long)runtime,
                sim::representedSeconds(runtime));
    return 0;
}

/**
 * Windowed replay over a seekable trace: decode only the blocks
 * overlapping [begin, end) and report how much of the payload the seek
 * actually touched.
 */
int
replayLaserCycles(const trace::TraceReplayer &replayer,
                  std::vector<double> thresholds, std::uint64_t begin,
                  std::uint64_t end)
{
    const trace::TraceFile &file = replayer.file();
    if (thresholds.empty())
        thresholds.push_back(1000.0); // the paper's default (Section 7.1)

    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        detect::DetectorConfig cfg;
        cfg.rateThreshold = thresholds[i];
        cfg.sav = file.meta().pebs.sav;
        detect::DetectorPipeline pipeline(replayer.context(), cfg);
        const std::unique_ptr<trace::RecordCursor> cur =
            file.cursorForCycles(begin, end);
        const std::uint64_t windowed = cur->drain(pipeline);
        if (cur->status() != trace::TraceStatus::Ok) {
            std::fprintf(stderr,
                         "laser_trace: window decode failed: %s\n",
                         trace::traceStatusName(cur->status()));
            return 2;
        }
        const detect::DetectionReport report =
            pipeline.finish(file.meta().runtimeCycles);
        std::printf("replaying %s cycles [%llu, %llu) at %.0f HITMs/sec "
                    "(sav %u): %llu of %llu records\n",
                    file.meta().workload.c_str(),
                    (unsigned long long)begin, (unsigned long long)end,
                    thresholds[i], file.meta().pebs.sav,
                    (unsigned long long)windowed,
                    (unsigned long long)file.recordCount());
        std::printf("seek decoded %s of %s record-blob bytes (%.1f%% of "
                    "the payload)\n\n",
                    humanBytes(cur->bytesRead()).c_str(),
                    humanBytes(file.recordBlobBytes()).c_str(),
                    file.payloadBytes() > 0
                        ? 1e2 * double(cur->bytesRead()) /
                              double(file.payloadBytes())
                        : 0.0);
        printReport(report);
        if (i + 1 < thresholds.size())
            std::printf("\n");
    }
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::vector<double> thresholds;
    int shards = 1;
    bool have_shards = false;
    bool have_cycles = false;
    std::uint64_t cycle_begin = 0;
    std::uint64_t cycle_end = 0;
    std::string v;
    for (int i = 3; i < argc; ++i) {
        if (nextArg(argc, argv, &i, "--threshold", &v))
            thresholds.assign(1, numArg(v, "--threshold"));
        else if (nextArg(argc, argv, &i, "--thresholds", &v)) {
            thresholds.clear();
            for (const std::string &s : splitCommas(v))
                thresholds.push_back(numArg(s, "--thresholds"));
        } else if (nextArg(argc, argv, &i, "--shards", &v)) {
            shards = intArg(v, "--shards");
            have_shards = true;
        } else if (nextArg(argc, argv, &i, "--cycles", &v)) {
            const std::size_t colon = v.find(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr, "laser_trace: --cycles expects "
                                     "BEGIN:END\n");
                return 1;
            }
            cycle_begin = uintArg(v.substr(0, colon), "--cycles");
            cycle_end = uintArg(v.substr(colon + 1), "--cycles");
            if (cycle_end <= cycle_begin) {
                std::fprintf(stderr, "laser_trace: --cycles window is "
                                     "empty\n");
                return 1;
            }
            have_cycles = true;
        } else
            return usage();
    }

    if (have_cycles && have_shards) {
        std::fprintf(stderr, "laser_trace: --cycles replays serially; "
                             "drop --shards\n");
        return 1;
    }
    // One open for every mode: the windowed path needs only the block
    // index and never touches blocks outside the window.
    trace::TraceFile file;
    const trace::TraceStatus status = file.open(argv[2]);
    if (status != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "laser_trace: %s: %s (%s)\n", argv[2],
                     trace::traceStatusName(status), file.error().c_str());
        return 2;
    }
    const trace::TraceMeta &meta = file.meta();
    if (have_cycles && meta.scheme != "laser-detect") {
        std::fprintf(stderr,
                     "laser_trace: --cycles replays laser-detect traces "
                     "(this is \"%s\")\n",
                     meta.scheme.c_str());
        return 1;
    }
    // A full replay reads every byte, so verify them all up front.
    if (!have_cycles && !file.payloadChecksumOk()) {
        std::fprintf(stderr, "laser_trace: %s: %s (payload checksum "
                             "mismatch)\n",
                     argv[2],
                     trace::traceStatusName(trace::TraceStatus::Corrupt));
        return 2;
    }
    trace::TraceReplayer replayer(meta, file);
    if (!replayer.ok()) {
        std::fprintf(stderr, "laser_trace: %s\n", replayer.error().c_str());
        return 2;
    }
    if (have_cycles)
        return replayLaserCycles(replayer, thresholds, cycle_begin,
                                 cycle_end);

    int rc;
    try {
        if (meta.scheme == "vtune") {
            rc = replayVTuneTrace(replayer, thresholds);
        } else if (meta.scheme == "sheriff-detect" ||
                   meta.scheme == "sheriff-protect") {
            rc = replaySheriffTrace(replayer);
        } else if (meta.scheme == "native") {
            std::printf("%s is a native capture (no analysis stream); "
                        "runtime %llu cycles (%.2f represented "
                        "seconds)\n",
                        meta.workload.c_str(),
                        (unsigned long long)meta.runtimeCycles,
                        sim::representedSeconds(meta.runtimeCycles));
            rc = 0;
        } else {
            rc = replayLaser(replayer, thresholds, shards);
        }
    } catch (const std::runtime_error &e) {
        // A record block that passes the payload checksum but does not
        // decode (e.g. a stream whose cycles go backwards).
        std::fprintf(stderr, "laser_trace: %s: %s\n", argv[2], e.what());
        return 2;
    }
    return rc;
}

int
cmdSweep(int argc, char **argv, obs::BenchReport *invocation)
{
    std::vector<std::string> names;
    std::vector<double> thresholds = {32,   64,   128,  256,   512,  1000,
                                      2000, 4000, 8000, 16000, 32000, 64000};
    core::SweepRunner::Config rc;
    trace::CaptureOptions opt;
    int shards = 0;
    std::string v;
    for (int i = 2; i < argc; ++i) {
        if (nextArg(argc, argv, &i, "--workloads", &v))
            names = splitCommas(v);
        else if (nextArg(argc, argv, &i, "--thresholds", &v)) {
            thresholds.clear();
            for (const std::string &s : splitCommas(v))
                thresholds.push_back(numArg(s, "--thresholds"));
        } else if (nextArg(argc, argv, &i, "--cache-dir", &v))
            rc.cacheDir = v;
        else if (nextArg(argc, argv, &i, "-j", &v))
            // Sweep jobs queue on the pool: threads beyond the core
            // count add nothing.
            rc.numWorkers = std::min(
                intArg(v, "-j"),
                std::max(1, static_cast<int>(
                                std::thread::hardware_concurrency())));
        else if (nextArg(argc, argv, &i, "--shards", &v))
            shards = intArg(v, "--shards");
        else if (nextArg(argc, argv, &i, "--protocol", &v))
            protocolArg(v, &opt);
        else if (nextArg(argc, argv, &i, "--line-bytes", &v))
            lineBytesArg(v, &opt);
        else
            return usage();
    }

    std::vector<const workloads::WorkloadDef *> defs;
    if (names.empty()) {
        for (const auto &w : workloads::allWorkloads())
            defs.push_back(&w);
    } else {
        for (const std::string &n : names) {
            const workloads::WorkloadDef *def = workloads::findWorkload(n);
            if (!def) {
                std::fprintf(stderr,
                             "laser_trace: unknown workload \"%s\"\n",
                             n.c_str());
                return 1;
            }
            defs.push_back(def);
        }
    }

    core::SweepRunner runner(rc);
    const core::ThresholdSweepResult sweep =
        core::thresholdSweep(runner, defs, thresholds, opt, shards);

    TablePrinter table(
        {"threshold (HITM/s)", "false negatives", "false positives"});
    for (const core::ThresholdSweepRow &row : sweep.rows)
        table.addRow({fmtDouble(row.threshold, 0),
                      std::to_string(row.falseNegatives),
                      std::to_string(row.falsePositives)});
    std::fputs(table.render().c_str(), stdout);

    const core::SweepStats stats = runner.stats();
    std::printf("\n%llu simulations, %llu memory cache hits, %llu disk "
                "cache hits; %zu replays (%d-shard digests) on %d "
                "workers\n",
                (unsigned long long)sweep.machineRuns,
                (unsigned long long)stats.memoryCacheHits,
                (unsigned long long)stats.diskCacheHits, sweep.replays,
                sweep.shardsPerDigest, runner.workers());
    if (sweep.machineRuns > 0)
        std::printf("capture %.2fs, digest %.2fs, replay %.2fs -> "
                    "replay speedup %.1fx per sweep point\n",
                    sweep.captureSeconds, sweep.digestSeconds,
                    sweep.replaySeconds, sweep.replaySpeedup());
    else
        std::printf("capture %.2fs (fully cache-served), digest %.2fs, "
                    "replay %.2fs\n",
                    sweep.captureSeconds, sweep.digestSeconds,
                    sweep.replaySeconds);
    printCacheHitRate(stats);
    invocation->setSweep(stats.machineRuns, stats.memoryCacheHits,
                         stats.diskCacheHits);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd != "record" && cmd != "info" && cmd != "replay" &&
        cmd != "sweep")
        return usage();

    // Every invocation is one telemetry record: BENCH_laser_trace_<cmd>
    // under LASER_METRICS_OUT (which also exports the TRACE_ artifact).
    obs::BenchReport invocation("laser_trace_" + cmd);

    int rc = -1;
    if (cmd == "record")
        rc = cmdRecord(argc, argv);
    else if (cmd == "info")
        rc = cmdInfo(argc, argv);
    else if (cmd == "replay")
        rc = cmdReplay(argc, argv);
    else if (cmd == "sweep")
        rc = cmdSweep(argc, argv, &invocation);

    invocation.results().set("command", obs::Json(cmd));
    invocation.results().set("exit_status", obs::Json(rc));
    const bool wrote = invocation.write();

    // Tell the user where the artifacts went after the heavyweight
    // commands, so nothing has to be guessed from env vars.
    if (wrote && (cmd == "sweep" || cmd == "replay")) {
        const std::string dir = obs::metricsDir();
        const std::string name = "laser_trace_" + cmd;
        std::printf("telemetry artifacts (LASER_METRICS_OUT=%s):\n"
                    "  %s/BENCH_%s.json\n",
                    dir.c_str(), dir.c_str(), name.c_str());
        if (obs::SpanCollector::global().eventCount() > 0) {
            const char *traceOverride =
                std::getenv("LASER_TRACE_EVENTS");
            if (traceOverride)
                std::printf("  %s\n", traceOverride);
            else
                std::printf("  %s/TRACE_%s.json\n", dir.c_str(),
                            name.c_str());
        }
    }
    return rc;
}
