/**
 * @file
 * Columnar trace codec bench: encode/decode throughput of each column's
 * codec, columnar-vs-row-wise compression on the full workload corpus,
 * and whole-trace vs windowed-seek replay latency.
 *
 * Acceptance:
 *   - the columnar blob encodes the corpus's record streams >= 1.3x
 *     smaller than the row-wise baseline (interleaved zigzag deltas,
 *     the layout LSRT v2 stored);
 *   - replaying a 10% cycle window through the block index reads < 25%
 *     of the payload bytes (measured by the window cursor's
 *     bytesRead(), so it reflects what the seek path actually touched).
 *
 * Each column's encode/decode MB/s is the median of kCodecRuns timed
 * runs: on a shared host a single run's figure moves by up to 1.5x.
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "detect/pipeline.h"
#include "trace/columnar.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "trace/wire.h"
#include "util/stats.h"

using namespace laser;
namespace col = trace::columnar;

namespace {

/** Process CPU time: immune to scheduler noise on shared CI runners. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** Timed runs per column codec direction; the table prints the median. */
constexpr int kCodecRuns = 5;

/** One column codec's measured throughput. */
struct CodecResult
{
    double encodeMBps = 0;
    double decodeMBps = 0;
    std::uint64_t encodedBytes = 0;
};

/**
 * Median over kCodecRuns runs of @p body's throughput in MB/s, where
 * @p body processes @p raw_mb of raw column data. Each run repeats the
 * body until it is long enough for CLOCK_PROCESS_CPUTIME_ID's
 * granularity not to matter.
 */
template <typename Body>
double
medianMBps(double raw_mb, const Body &body)
{
    std::vector<double> runs;
    for (int run = 0; run < kCodecRuns; ++run) {
        int reps = 0;
        double elapsed = 0;
        while (elapsed < 0.05 || reps < 3) {
            const double start = cpuSeconds();
            body();
            elapsed += cpuSeconds() - start;
            ++reps;
        }
        runs.push_back(raw_mb * reps / elapsed);
    }
    return median(std::move(runs));
}

/**
 * Time @p column's codec over @p vals in block-sized strides (the unit
 * the real writer encodes).
 */
CodecResult
timeCodec(std::size_t column, const std::vector<std::uint64_t> &vals)
{
    CodecResult result;
    const double raw_mb = double(vals.size()) * 8.0 / 1e6;
    const std::size_t stride = col::kDefaultBlockRecords;

    std::vector<std::uint8_t> encoded;
    result.encodeMBps = medianMBps(raw_mb, [&] {
        encoded.clear();
        for (std::size_t i = 0; i < vals.size(); i += stride) {
            const std::vector<std::uint64_t> block(
                vals.begin() + i,
                vals.begin() + std::min(i + stride, vals.size()));
            col::encodeColumn(column, block, &encoded);
        }
    });
    result.encodedBytes = encoded.size();

    // Decode from the per-block slices the encode produced.
    std::vector<std::pair<std::size_t, std::size_t>> slices;
    {
        std::vector<std::uint8_t> probe;
        std::size_t off = 0;
        for (std::size_t i = 0; i < vals.size(); i += stride) {
            const std::vector<std::uint64_t> block(
                vals.begin() + i,
                vals.begin() + std::min(i + stride, vals.size()));
            probe.clear();
            col::encodeColumn(column, block, &probe);
            slices.emplace_back(off, probe.size());
            off += probe.size();
        }
    }
    std::vector<std::uint64_t> decoded;
    result.decodeMBps = medianMBps(raw_mb, [&] {
        std::size_t i = 0;
        for (const auto &[off, size] : slices) {
            const std::size_t count =
                std::min(stride, vals.size() - i);
            decoded.clear();
            if (!col::decodeColumn(column, encoded.data() + off, size,
                                   count, &decoded)) {
                std::fprintf(stderr, "%s codec failed to round-trip\n",
                             col::columnName(column));
                std::exit(1);
            }
            i += count;
        }
    });
    return result;
}

/**
 * Row-wise baseline: a varint record count, then per record the zigzag
 * pc / data-address / cycle deltas and the varint core. Measured, like
 * the columnar size, as the growth over the same trace with no records
 * (whose count is one varint byte), so fixed overhead cancels.
 */
std::uint64_t
rowWiseRecordBytes(const trace::Trace &t)
{
    std::vector<std::uint8_t> bytes;
    trace::wire::ByteWriter w(bytes);
    w.var(t.records.size());
    pebs::PebsRecord prev{};
    for (const pebs::PebsRecord &rec : t.records) {
        w.zig(static_cast<std::int64_t>(rec.pc - prev.pc));
        w.zig(static_cast<std::int64_t>(rec.dataAddr - prev.dataAddr));
        w.var(static_cast<std::uint64_t>(rec.core));
        w.zig(static_cast<std::int64_t>(rec.cycle - prev.cycle));
        prev = rec;
    }
    return bytes.size() - 1;
}

/**
 * Columnar record-stream bytes of @p t: full image minus the image of
 * the same trace with no records.
 */
std::uint64_t
columnarRecordBytes(const trace::Trace &t)
{
    trace::TraceWriter full(t.meta);
    full.appendAll(t.records);
    trace::TraceWriter none(t.meta);
    return full.finalize().size() - none.finalize().size();
}

} // namespace

int
main()
{
    bench::banner("Trace codec throughput & seek efficiency",
                  "the capture/replay substrate (Section 5)");
    obs::BenchReport telemetry("trace_codec");

    // ---- Corpus compression: columnar vs the row-wise baseline ----
    // The totals keep their historical v2_/v3_ result keys so archived
    // BENCH_trace_codec.json files stay comparable.
    core::SweepRunner runner(bench::sweepConfig());
    std::optional<trace::Trace> biggest;
    std::uint64_t row_bytes = 0, columnar_bytes = 0;
    std::size_t corpus = 0;
    for (const auto &w : workloads::allWorkloads()) {
        trace::Trace t;
        // The row-wise baseline re-encodes the decoded record vector.
        if (runner.captureFile(w, {})->readAll(&t) !=
                trace::TraceStatus::Ok) {
            std::fprintf(stderr, "%s: cached trace does not decode\n",
                         w.info.name.c_str());
            return 1;
        }
        if (t.records.empty())
            continue;
        ++corpus;
        row_bytes += rowWiseRecordBytes(t);
        columnar_bytes += columnarRecordBytes(t);
        if (!biggest || t.records.size() > biggest->records.size())
            biggest = std::move(t);
    }
    const double ratio =
        columnar_bytes > 0 ? double(row_bytes) / double(columnar_bytes) : 0.0;
    const bool ratio_pass = ratio >= 1.3;
    std::printf("corpus: %zu traces with records; row-wise record "
                "streams %s, columnar %s -> %s smaller (acceptance: >= "
                "1.30x)\n\n",
                corpus, humanBytes(row_bytes).c_str(),
                humanBytes(columnar_bytes).c_str(), fmtTimes(ratio).c_str());

    // ---- Per-column codec throughput ----
    // Tile the biggest capture so each column is a few hundred KB and
    // per-block fixed costs stop dominating.
    if (!biggest) {
        std::fprintf(stderr, "no workload produced records\n");
        return 1;
    }
    const std::uint64_t stride = biggest->records.back().cycle + 1;
    const int copies = std::max<int>(
        1, int(200000 / std::max<std::size_t>(
                            1, biggest->records.size())));
    trace::Trace big;
    big.meta = biggest->meta;
    big.records.reserve(biggest->records.size() * std::size_t(copies));
    for (int c = 0; c < copies; ++c)
        for (pebs::PebsRecord r : biggest->records) {
            r.cycle += stride * std::uint64_t(c);
            big.records.push_back(r);
        }

    std::vector<std::uint64_t> cols[col::kColumnCount];
    for (const pebs::PebsRecord &r : big.records) {
        cols[col::kColPc].push_back(r.pc);
        cols[col::kColAddr].push_back(r.dataAddr);
        cols[col::kColCore].push_back(
            std::uint64_t(std::int64_t(r.core)));
        cols[col::kColCycle].push_back(r.cycle);
    }

    TablePrinter table({"column", "encode MB/s", "decode MB/s", "ratio"});
    obs::Json codec_json = obs::Json::object();
    for (std::size_t c = 0; c < col::kColumnCount; ++c) {
        const CodecResult r = timeCodec(c, cols[c]);
        const double cr =
            r.encodedBytes > 0
                ? double(cols[c].size()) * 8.0 / double(r.encodedBytes)
                : 0.0;
        table.addRow({col::columnName(c), fmtDouble(r.encodeMBps, 1),
                      fmtDouble(r.decodeMBps, 1), fmtTimes(cr)});
        codec_json.set(col::columnName(c),
                       obs::Json::object()
                           .set("encode_mbps", obs::Json(r.encodeMBps))
                           .set("decode_mbps", obs::Json(r.decodeMBps))
                           .set("encoded_bytes", obs::Json(r.encodedBytes)));
    }
    std::printf("%zu records/column (%s raw per column, block size "
                "%zu; median MB/s of %d runs)\n",
                big.records.size(),
                humanBytes(big.records.size() * 8).c_str(),
                col::kDefaultBlockRecords, kCodecRuns);
    std::fputs(table.render().c_str(), stdout);

    // ---- Whole-trace vs windowed-seek replay ----
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        "bench_trace_codec.ltrace";
    if (trace::writeTraceFile(big, path.string()) !=
            trace::TraceStatus::Ok) {
        std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
        return 1;
    }
    trace::TraceFile file;
    if (file.open(path.string()) != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "cannot open %s: %s\n",
                     path.string().c_str(), file.error().c_str());
        return 1;
    }
    trace::TraceReplayer env(file.meta(), file);
    if (!env.ok()) {
        std::fprintf(stderr, "replay environment: %s\n",
                     env.error().c_str());
        return 1;
    }
    auto replay_window = [&](std::uint64_t begin, std::uint64_t end,
                             std::uint64_t *bytes) {
        detect::DetectorConfig cfg;
        cfg.sav = file.meta().pebs.sav;
        detect::DetectorPipeline pipeline(env.context(), cfg);
        const double start = cpuSeconds();
        const std::unique_ptr<trace::RecordCursor> cur =
            file.cursorForCycles(begin, end);
        cur->drain(pipeline);
        pipeline.finish(file.meta().runtimeCycles);
        const double elapsed = cpuSeconds() - start;
        *bytes = cur->bytesRead();
        return elapsed;
    };

    const std::uint64_t lo = file.index().blocks.front().firstCycle;
    const std::uint64_t hi = file.index().blocks.back().lastCycle + 1;
    const std::uint64_t span = hi - lo;
    std::uint64_t full_bytes = 0, window_bytes = 0;
    double full_s = 1e300, window_s = 1e300;
    for (int i = 0; i < 5; ++i) {
        full_s = std::min(full_s, replay_window(0, UINT64_MAX,
                                                &full_bytes));
        window_s = std::min(
            window_s, replay_window(lo + span * 45 / 100,
                                    lo + span * 55 / 100, &window_bytes));
    }
    const double window_fraction =
        file.payloadBytes() > 0
            ? double(window_bytes) / double(file.payloadBytes())
            : 1.0;
    const bool window_pass = window_fraction < 0.25;
    std::printf("\nfull replay: %.2fms, %s read; 10%% cycle window: "
                "%.2fms, %s read (%.1f%% of payload; acceptance: "
                "< 25%%)\n",
                1e3 * full_s, humanBytes(full_bytes).c_str(),
                1e3 * window_s, humanBytes(window_bytes).c_str(),
                1e2 * window_fraction);
    std::printf("compression: %s (acceptance >= 1.30x); seek window: "
                "%s\n",
                ratio_pass ? "PASS" : "FAIL",
                window_pass ? "PASS" : "FAIL");
    std::error_code ec;
    std::filesystem::remove(path, ec);

    telemetry.results()
        .set("corpus_traces", obs::Json(std::uint64_t(corpus)))
        .set("v2_record_bytes", obs::Json(row_bytes))
        .set("v3_record_bytes", obs::Json(columnar_bytes))
        .set("compression_ratio", obs::Json(ratio))
        .set("compression_acceptance", obs::Json(1.3))
        .set("compression_pass", obs::Json(ratio_pass))
        .set("codec_throughput", std::move(codec_json))
        .set("records_per_column",
             obs::Json(std::uint64_t(big.records.size())))
        .set("full_replay_seconds", obs::Json(full_s))
        .set("window_replay_seconds", obs::Json(window_s))
        .set("window_cycle_fraction", obs::Json(0.10))
        .set("window_payload_fraction", obs::Json(window_fraction))
        .set("window_acceptance", obs::Json(0.25))
        .set("window_pass", obs::Json(window_pass));
    const core::SweepStats stats = runner.stats();
    bench::writeTelemetry(telemetry, &stats);
    return ratio_pass && window_pass ? 0 : 1;
}
