/**
 * @file
 * Sharded parallel replay, the one full-stream LASER replay of a stored
 * trace: split the trace's canonical record stream into contiguous
 * cycle windows, digest each window with an independent Shard-mode
 * DetectorPipeline on a thread pool, merge the shard states in window
 * order, and build each configuration's report from the merged digest.
 * `laser_trace replay`, core::thresholdSweep, the bench harnesses and
 * replayDetection() all replay this way.
 *
 * Each shard pulls its window through its own RecordCursor over the
 * replayer's trace::TraceFile, so a replay holds one decoded columnar
 * block per shard — O(block x shards) record memory — instead of the
 * materialized trace. The cursor hands each decoded block to the
 * shard's pipeline as columns (RecordSink::onColumns). The split is by
 * record index (computed from the file's record count), so exactly the
 * same records land in the same shards as a split of the record vector
 * would, whatever the block layout.
 *
 * One shard is digested inline on the calling thread, never queued on
 * the pool: a one-job batch would only wait behind the queue for no
 * parallelism. A caller that fans many one-shard digests over a pool
 * (core::thresholdSweep, which queues them largest first) thereby
 * decides the order they start in.
 *
 * The merged DetectionReport is identical, for any shard count, to the
 * Streaming-mode pipeline's over the same records: per-line cache-line
 * state is reconciled across shard boundaries and the online
 * repair-trigger semantics are preserved by a sequential merge-time
 * rate scan (see detect/detector_state.h for the argument).
 * test_parallel_replay checks this for every registered workload at
 * several shard counts, so no run-time check repeats it.
 *
 * Because the digest is config-independent, it runs once per trace and
 * is reused by every replay(cfg) call (digest-once / report-many). The
 * threshold-free parts of each report are built once with it too: the
 * rate-check windows at the default rateCheckInterval and the
 * per-source-line aggregates. A threshold sweep over a captured trace
 * therefore pays the stream cost once, and each additional
 * configuration costs O(windows + lines) — not a rate scan over every
 * event. A configuration with another rateCheckInterval summarises the
 * merged events for its own interval on the spot.
 */

#ifndef LASER_TRACE_PARALLEL_REPLAY_H
#define LASER_TRACE_PARALLEL_REPLAY_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/detector_state.h"
#include "detect/pipeline.h"
#include "detect/types.h"
#include "trace/replay.h"
#include "util/thread_pool.h"

namespace laser::trace {

class ParallelReplayer
{
  public:
    struct Options
    {
        /** Number of time-window shards; clamped to [1, record count]. */
        int shards = 4;
        /**
         * Pool to digest shards on; nullptr runs shards on a transient
         * pool of min(shards, hardware concurrency) workers. Unused
         * with one shard, which is digested on the calling thread.
         */
        util::ThreadPool *pool = nullptr;
    };

    /**
     * Digests the trace immediately (sharded, in parallel). @p env must
     * outlive the replayer.
     */
    explicit ParallelReplayer(const TraceReplayer &env);
    ParallelReplayer(const TraceReplayer &env, Options opt);

    /**
     * Build the report for one configuration from the merged digest.
     * Cheap relative to the digest: a scan of the cached rate-check
     * windows plus a pass over the cached line aggregates. Safe to call
     * concurrently.
     */
    detect::DetectionReport
    replay(const detect::DetectorConfig &cfg) const;

    /** Shards actually used after clamping. */
    int shards() const { return shards_; }

    /** Records digested (after filtering: state().totalRecords). */
    const detect::DetectorState &state() const { return merged_; }

  private:
    const TraceReplayer *env_;
    int shards_ = 1;
    detect::DetectorState merged_;
    /** merged_.rateEvents at DetectorConfig{}.rateCheckInterval. */
    detect::RateWindows windows_;
    /** detect::aggregateLines(merged_). */
    std::vector<detect::LineReport> lines_;
};

/**
 * One-shot sharded detection replay of a captured laser-detect trace at
 * the capture SAV with every other knob at its default — the
 * repair-decision / accuracy convenience the benches share. Pass the
 * already-busy pool (e.g. SweepRunner::pool()) so shard jobs queue
 * there instead of spawning a transient pool per call. Throws
 * std::runtime_error when the trace's workload is unknown or a record
 * block fails to decode.
 */
detect::DetectionReport replayDetection(const TraceFile &file, int shards,
                                        util::ThreadPool *pool = nullptr);

/**
 * replayDetection() over an in-memory capture: encodes @p trace (which
 * must be canonical, as every captured trace is) into a TraceFile image
 * and replays that.
 */
detect::DetectionReport replayDetection(const Trace &trace, int shards,
                                        util::ThreadPool *pool = nullptr);

} // namespace laser::trace

#endif // LASER_TRACE_PARALLEL_REPLAY_H
