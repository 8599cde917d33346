/**
 * @file
 * Observability-overhead micro-bench: the digest path's spans
 * (replay.shard, replay.merge) are the instrumentation left on the
 * hottest replay path, so this bench measures ParallelReplayer digest
 * throughput — trace-file block decode into DetectorPipeline::onColumns,
 * the path every replay takes — with span collection armed vs disarmed
 * (obs::SpanCollector::global().enable()/disable()).
 *
 * Acceptance: the armed path must stay within 5% of the disarmed path's
 * CPU time. Passes are interleaved A/B rounds so frequency drift and
 * cache warmth hit both sides equally.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/sweep_runner.h"
#include "obs/span.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace_file.h"

using namespace laser;

namespace {

/**
 * Process CPU time across all threads. Instrumentation overhead is
 * extra CPU work, and unlike wall time this is immune to the
 * scheduler preempting us for unrelated processes — essential on the
 * small shared runners CI uses.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** CPU-time a batch of digests; returns seconds for the whole batch. */
double
timeDigests(const trace::TraceReplayer &env, util::ThreadPool *pool,
            int batch, std::uint64_t *records)
{
    trace::ParallelReplayer::Options opt;
    opt.shards = 4;
    opt.pool = pool;
    const double start = cpuSeconds();
    for (int i = 0; i < batch; ++i) {
        trace::ParallelReplayer replayer(env, opt);
        *records = replayer.state().totalRecords;
    }
    return cpuSeconds() - start;
}

} // namespace

int
main()
{
    bench::banner("Observability overhead",
                  "the replay path's 5% instrumentation budget");
    obs::BenchReport telemetry("obs_overhead");

    // Digest the suite's biggest captured record stream — amplified by
    // tiling it end-to-end, so each digest runs a few milliseconds and
    // fixed per-digest costs (shard dispatch, state merge) stop
    // dominating what is meant to be a per-record measurement. The
    // tiled stream is encoded into an in-memory trace file, so the
    // digests decode blocks exactly as a cached trace's replay does.
    core::SweepRunner runner(bench::sweepConfig());
    std::shared_ptr<const trace::TraceFile> biggest;
    for (const auto &w : workloads::allWorkloads()) {
        auto file = runner.captureFile(w, {});
        if (!biggest || file->recordCount() > biggest->recordCount())
            biggest = std::move(file);
    }
    trace::Trace source;
    if (biggest->readAll(&source) != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "cached trace does not decode\n");
        return 1;
    }
    const int copies = 40;
    trace::TraceWriter writer(source.meta);
    const std::uint64_t stride =
        source.records.empty() ? 1 : source.records.back().cycle + 1;
    for (int c = 0; c < copies; ++c)
        for (pebs::PebsRecord r : source.records) {
            r.cycle += stride * std::uint64_t(c);
            writer.append(r);
        }
    trace::TraceFile big;
    if (big.openBytes(writer.finalize()) != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "tiled trace does not open: %s\n",
                     big.error().c_str());
        return 1;
    }
    trace::TraceReplayer env(big.meta(), big);
    if (!env.ok()) {
        std::fprintf(stderr, "replay environment failed to build\n");
        return 1;
    }

    // The A/B switch is span collection itself; the trace exporter's
    // own setting (LASER_TRACE_EVENTS / LASER_METRICS_OUT) is restored
    // after the timed loops.
    obs::SpanCollector &spans = obs::SpanCollector::global();
    const bool spans_were_on = spans.enabled();

    // The suite's traces digest in well under a millisecond each, and
    // CPU-time accounting on small shared runners is heavy-tailed
    // (interrupt time lands on whichever side is running), so no
    // single round is trustworthy. Time a batch of digests per round,
    // pair each armed round with the adjacent disarmed round, and
    // take the *median* of the per-pair overheads — robust to tail
    // noise on either side.
    const int batch = 3;
    const int rounds = 21; // odd, so the median is a real sample
    const int warmup = 2;
    std::uint64_t records = 0;
    std::vector<double> pair_overheads;
    pair_overheads.reserve(rounds);
    double on_best = 1e300, off_best = 1e300;
    for (int i = 0; i < warmup; ++i)
        timeDigests(env, &runner.pool(), batch, &records);
    const std::size_t events_before = spans.eventCount();
    for (int i = 0; i < rounds; ++i) {
        spans.enable();
        const double on =
            timeDigests(env, &runner.pool(), batch, &records);
        spans.disable();
        const double off =
            timeDigests(env, &runner.pool(), batch, &records);
        on_best = std::min(on_best, on);
        off_best = std::min(off_best, off);
        if (off > 0)
            pair_overheads.push_back((on - off) / off);
    }
    if (spans_were_on)
        spans.enable();
    // An armed side that records nothing would make the A/B vacuous.
    if (spans.eventCount() == events_before) {
        std::fprintf(stderr, "armed digests recorded no spans\n");
        return 1;
    }

    std::sort(pair_overheads.begin(), pair_overheads.end());
    const double overhead =
        pair_overheads.empty()
            ? 0.0
            : pair_overheads[pair_overheads.size() / 2];
    const double on_rps =
        double(records) * batch / (on_best > 0 ? on_best : 1);
    const double off_rps =
        double(records) * batch / (off_best > 0 ? off_best : 1);

    std::printf("workload %s: %llu records/digest, %d rounds x %d "
                "digests, 4 shards\n",
                big.meta().workload.c_str(),
                (unsigned long long)records, rounds, batch);
    std::printf("spans armed:    %.2f Mrec/s (best %.3fms/batch)\n",
                on_rps / 1e6, 1e3 * on_best);
    std::printf("spans disarmed: %.2f Mrec/s (best %.3fms/batch)\n",
                off_rps / 1e6, 1e3 * off_best);
    std::printf("overhead: %.2f%% median of %d A/B pairs "
                "(acceptance: < 5%%)\n",
                1e2 * overhead, (int)pair_overheads.size());

    telemetry.results()
        .set("workload", obs::Json(big.meta().workload))
        .set("records_per_digest", obs::Json(records))
        .set("rounds", obs::Json(rounds))
        .set("enabled_records_per_sec", obs::Json(on_rps))
        .set("disabled_records_per_sec", obs::Json(off_rps))
        .set("overhead_fraction", obs::Json(overhead))
        .set("acceptance_threshold", obs::Json(0.05))
        .set("pass", obs::Json(overhead < 0.05));
    const core::SweepStats stats = runner.stats();
    bench::writeTelemetry(telemetry, &stats);
    return overhead < 0.05 ? 0 : 1;
}
