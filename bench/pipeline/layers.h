/**
 * @file
 * Per-layer accounting for the traced run of bench_pipeline.
 *
 * The traced run splits each benchmark item into calls to the public
 * functions of one module at a time and wraps each call in a
 * LayerScope: an obs::Span (so the call shows up in the Chrome trace)
 * plus a steady_clock timer whose *self* time — its duration minus the
 * time of LayerScopes nested inside it on the same thread — is added to
 * the layer's accumulator together with the work the call did (records,
 * instructions, calls).
 *
 * Accumulators live in two banks. Items of the workload under test fill
 * the Workload bank; the small fixed probes that the traced run adds for
 * layers the workload never calls fill the Probe bank. A layer is
 * reported from the Workload bank when the workload exercised it and
 * from the Probe bank otherwise, so every traced run reports every
 * layer and on-path numbers are never mixed with probe numbers.
 * Counts are kept for the workload's own passes only.
 */

#ifndef LASER_PIPELINE_LAYERS_H
#define LASER_PIPELINE_LAYERS_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/span.h"
#include "sim/hitm.h"

namespace laser::benchpipe {

/** Timed layers, in report order. */
enum class Layer : int {
    WorkloadsBuild,
    SimNative,
    SimRun,
    ProtocolMesi,
    ProtocolDragon,
    PebsOnHitm,
    AnalysisSort,
    TraceEncode,
    TraceOpen,
    TraceReplayEnv,
    TraceDecode,
    DetectDigest,
    DetectShardedDigest,
    DetectMerge,
    DetectRateScan,
    DetectReport,
    DetectStream,
    CoreAccuracy,
    RepairAnalyze,
    RepairInstrument,
    RepairRerun,
    kCount,
};

/** Exact per-pass counts the traced run reports. */
enum class Count : int {
    SimInstructions,
    SimHitmEvents,
    SimLinesTouched,
    SimCycles,
    SimSsbFlushes,
    PebsRecords,
    TraceBytes,
    DetectRateEvents,
    DetectFn,
    DetectFp,
    RepairApplied,
    kCount,
};

/** Static description of one layer metric. */
struct LayerInfo
{
    const char *metric; ///< reported name, also the span name
    const char *unit;
    /** Nanoseconds -> reported unit, per unit of work. */
    double scale;
    /** Report span time including children (phase-style layers). */
    bool inclusive;
    /** Emit an obs::Span per call (off for sub-microsecond calls). */
    bool span;
};

const LayerInfo &layerInfo(Layer layer);

enum class Bank : int { Workload = 0, Probe = 1 };

/** Select the bank subsequent records go to (set between phases). */
void setBank(Bank bank);

/** Add @p ns of time and @p units of work to a layer (thread-safe). */
void addLayer(Layer layer, std::int64_t self_ns, std::int64_t total_ns,
              std::uint64_t units);

/** Add to a count (thread-safe). */
void addCount(Count count, std::uint64_t n);

/** Mark one completed traced pass (counts are reported per pass). */
void addPass();

/** Per-pass values of the three sweep phases (ThresholdSweepResult). */
void addSweepPhases(double capture_s, double digest_s, double replay_s);

/** A layer's reported value: Workload bank if it has work, else Probe. */
std::optional<double> layerValue(Layer layer);

/**
 * Per-pass count of the workload's own traced passes; 0 for work the
 * workload does not do (probes never count).
 */
double countValue(Count count);

/** Median sweep phase seconds (capture, digest, replay). */
std::optional<std::vector<double>> sweepPhases();

/**
 * Timed scope around one call into a layer. Nesting is tracked per
 * thread; a scope's self time excludes nested scopes on its thread and
 * any time passed to excludeNs().
 */
class LayerScope
{
  public:
    explicit LayerScope(Layer layer, std::uint64_t units = 1);
    ~LayerScope();

    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

    /** Work done, when known only after the call. */
    void setUnits(std::uint64_t units) { units_ = units; }

    /** Time inside the scope that belongs to no layer of it. */
    void excludeNs(std::int64_t ns) { childNs_ += ns; }

  private:
    Layer layer_;
    std::uint64_t units_;
    std::optional<obs::Span> span_;
    LayerScope *parent_;
    std::int64_t childNs_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/**
 * PmuSink decorator timing every onHitm call of the wrapped sink; the
 * other callbacks are forwarded untimed.
 */
class TimedPmuSink final : public sim::PmuSink
{
  public:
    explicit TimedPmuSink(sim::PmuSink &inner) : inner_(inner) {}

    std::uint64_t onHitm(const sim::HitmEvent &event) override;
    std::uint64_t onMemop(int core, std::uint32_t pc_index, bool is_write,
                          std::uint64_t cycle) override;
    std::uint64_t onSync(int core, isa::SyncKind kind,
                         std::uint64_t dirty_pages,
                         std::uint64_t cycle) override;

    std::int64_t timedNs() const { return ns_; }

    /**
     * Book this sink's calls: the net onHitm time (timed time minus the
     * timer's own cost) goes to PebsOnHitm, and the whole time the
     * decorator added is excluded from @p run's self time.
     */
    void settle(LayerScope &run) const;

  private:
    sim::PmuSink &inner_;
    std::uint64_t calls_ = 0;
    std::int64_t ns_ = 0;
};

/**
 * Measure the cost of an empty timed onHitm call (once per process,
 * before any traced pass): what a call adds to the enclosing run, and
 * the part of it the per-call timer itself reads as elapsed.
 */
void calibrateTimedSink();

} // namespace laser::benchpipe

#endif // LASER_PIPELINE_LAYERS_H
