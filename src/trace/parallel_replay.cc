#include "trace/parallel_replay.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "analysis/sink.h"
#include "obs/span.h"

namespace laser::trace {

ParallelReplayer::ParallelReplayer(const TraceReplayer &env)
    : ParallelReplayer(env, Options())
{
}

ParallelReplayer::ParallelReplayer(const TraceReplayer &env, Options opt)
    : env_(&env)
{
    // The replayer's file stream is canonical by construction.
    const std::uint64_t n = env.file().recordCount();
    shards_ = std::max(1, opt.shards);
    if (static_cast<std::uint64_t>(shards_) > n)
        shards_ = static_cast<int>(std::max<std::uint64_t>(1, n));

    // Digest each contiguous time window independently through its own
    // cursor, so a file-backed replay holds one decoded block per shard
    // rather than the materialized trace. Shard pipelines share the
    // replayer's immutable context; each owns only its state.
    //
    // Deliberately lock-free: shard s writes only states[s] and
    // shard_status[s] — disjoint elements of
    // vectors sized before the fan-out — and the merge below reads them
    // only after parallelFor returns, whose batch-completion handshake
    // (util/thread_pool.h) is the synchronization point. There is no
    // shared mutable state to GUARDED_BY here; adding any requires a
    // util::Mutex and an annotation (see CONTRIBUTING.md).
    std::vector<detect::DetectorState> states(shards_);
    std::vector<TraceStatus> shard_status(
        static_cast<std::size_t>(shards_), TraceStatus::Ok);
    const auto digest_shard = [&](std::size_t s) {
        LASER_SPAN("replay.shard");
        // Index-based split: the same records land in the same shards
        // as a materialized split would, preserving bit-identity.
        const std::uint64_t begin = n * s / shards_;
        const std::uint64_t end = n * (s + 1) / shards_;
        detect::DetectorPipeline pipeline(
            env.context(), {}, detect::DetectorPipeline::Mode::Shard);
        pipeline.reserveEvents(static_cast<std::size_t>(end - begin));
        const std::unique_ptr<RecordCursor> cur =
            env.file().cursorForRecords(begin, end);
        cur->drain(pipeline);
        shard_status[s] = cur->status();
        states[s] = pipeline.takeState();
    };
    if (shards_ == 1) {
        // Inline: a one-job batch on a shared pool would wait at the
        // back of its queue for no parallelism in return.
        digest_shard(0);
    } else if (opt.pool) {
        opt.pool->parallelFor(static_cast<std::size_t>(shards_),
                              digest_shard);
    } else {
        // Shards queue on the pool, so more shards than cores never
        // needs more threads than cores.
        util::ThreadPool local(std::min(
            shards_,
            std::max(1, static_cast<int>(
                            std::thread::hardware_concurrency()))));
        local.parallelFor(static_cast<std::size_t>(shards_),
                          digest_shard);
    }
    for (int s = 0; s < shards_; ++s)
        if (shard_status[static_cast<std::size_t>(s)] != TraceStatus::Ok)
            throw std::runtime_error(
                std::string("sharded replay: shard ") +
                std::to_string(s) + " record stream failed: " +
                traceStatusName(
                    shard_status[static_cast<std::size_t>(s)]));

    // Window-order merge: concatenating the shards' event streams in
    // this order reproduces the serial processing order exactly.
    {
        LASER_SPAN("replay.merge");
        std::size_t events = 0;
        for (const detect::DetectorState &state : states)
            events += state.rateEvents.size();
        merged_ = std::move(states[0]);
        merged_.rateEvents.reserve(events);
        for (int s = 1; s < shards_; ++s)
            merged_.mergeFrom(std::move(states[s]));
    }

    // The threshold-free halves of every replay(cfg): built once here,
    // read-only afterwards.
    windows_ = detect::summarizeRateEvents(
        merged_.rateEvents, detect::DetectorConfig{}.rateCheckInterval);
    lines_ = detect::aggregateLines(env.context(), merged_);
}

detect::DetectionReport
ParallelReplayer::replay(const detect::DetectorConfig &cfg) const
{
    LASER_SPAN("replay.report");
    const detect::RateScanState scan =
        cfg.rateCheckInterval == windows_.interval
            ? detect::scanRateWindows(windows_, cfg)
            : detect::scanRateEvents(merged_.rateEvents, cfg);
    return detect::buildReport(env_->context(), cfg, merged_, lines_, scan,
                               env_->meta().runtimeCycles);
}

detect::DetectionReport
replayDetection(const TraceFile &file, int shards, util::ThreadPool *pool)
{
    TraceReplayer env(file.meta(), file);
    if (!env.ok())
        throw std::runtime_error("replayDetection: " + env.error());
    ParallelReplayer::Options opt;
    opt.shards = shards;
    opt.pool = pool;
    ParallelReplayer digest(env, opt);
    detect::DetectorConfig cfg;
    cfg.sav = file.meta().pebs.sav;
    return digest.replay(cfg);
}

detect::DetectionReport
replayDetection(const Trace &trace, int shards, util::ThreadPool *pool)
{
    TraceWriter writer(trace.meta);
    writer.appendAll(trace.records);
    TraceFile file;
    const TraceStatus status = file.openBytes(writer.finalize());
    if (status != TraceStatus::Ok)
        throw std::runtime_error(std::string("replayDetection: ") +
                                 traceStatusName(status) + " (" +
                                 file.error() + ")");
    return replayDetection(file, shards, pool);
}

} // namespace laser::trace
