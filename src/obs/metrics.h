/**
 * @file
 * Process-wide metrics registry: counters, gauges and log-scale
 * histograms with lock-free per-thread-sharded hot paths.
 *
 * Increment cost is one relaxed fetch_add on a cache-line-padded slot
 * owned (with overwhelming probability) by the calling thread alone, so
 * instrumenting the digest/replay hot paths — one counter bump per PEBS
 * record — stays uncontended no matter how many shard pipelines run
 * concurrently. Slots are merged only on snapshot().
 *
 * Handles returned by Registry::counter()/gauge()/histogram() are
 * stable for the registry's lifetime; instrumentation sites cache them
 * in function-local statics:
 *
 *     static obs::Counter &c =
 *         obs::Registry::global().counter("detect.records_ingested");
 *     c.inc();
 *
 * A process-wide kill switch (obs::setEnabled(false), or the
 * LASER_OBS=0 environment variable read on first use) turns every
 * recording call into a single predictable-branch early return — the
 * baseline the bench_obs_overhead harness measures instrumentation
 * against.
 */

#ifndef LASER_OBS_METRICS_H
#define LASER_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/mutex.h"

namespace laser::obs {

/** Process-wide recording switch (default on; LASER_OBS=0 disables). */
bool enabled();
void setEnabled(bool on);

/** Small dense thread index, assigned on first use per thread. */
unsigned threadIndex();

namespace detail {

/** Slots used for striping; thread i writes slot i % kSlots. */
inline constexpr unsigned kSlots = 16;

struct alignas(64) PaddedU64
{
    std::atomic<std::uint64_t> v{0};
};

inline unsigned
slotIndex()
{
    return threadIndex() % kSlots;
}

} // namespace detail

/** Monotonic counter; inc() is wait-free on the caller's slot. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        if (!enabled())
            return;
        slots_[detail::slotIndex()].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum over all slots (snapshot-consistency only per slot). */
    std::uint64_t value() const;

    const std::string &name() const { return name_; }

  private:
    friend class Registry;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    std::string name_;
    std::array<detail::PaddedU64, detail::kSlots> slots_;
};

/** Last-write-wins double value with atomic add (queue depths etc.). */
class Gauge
{
  public:
    void
    set(double v)
    {
        if (enabled())
            value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        if (enabled())
            value_.fetch_add(delta, std::memory_order_relaxed);
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

    const std::string &name() const { return name_; }

  private:
    friend class Registry;
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    std::string name_;
    std::atomic<double> value_{0.0};
};

/**
 * Log-scale histogram over positive doubles: 4 sub-buckets per power of
 * two covering [2^-32, 2^32) plus underflow/overflow buckets, so
 * percentile estimates carry at most ~9% relative bucket error across
 * 19 decimal orders of magnitude — one layout serves nanosecond span
 * timings and multi-billion cycle epochs alike. record() touches only
 * the caller's slot (relaxed atomics, no locks).
 */
class Histogram
{
  public:
    static constexpr int kSubBuckets = 4;
    static constexpr int kMinExp = -32; ///< values below 2^-32 underflow
    static constexpr int kMaxExp = 32;  ///< values >= 2^32 overflow
    static constexpr int kBuckets =
        (kMaxExp - kMinExp) * kSubBuckets + 2;

    void record(double value);

    /** Bucket index for @p value (non-positive values underflow). */
    static int bucketOf(double value);
    /** Upper bound of bucket @p b (inclusive representative range). */
    static double bucketUpperBound(int b);

    const std::string &name() const { return name_; }

    struct Data
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0; ///< exact observed minimum (0 when empty)
        double max = 0.0; ///< exact observed maximum (0 when empty)
        /** Non-empty buckets: (upper bound, count), ascending. */
        std::vector<std::pair<double, std::uint64_t>> buckets;

        /**
         * Percentile estimate for @p p in [0, 1]: geometric midpoint of
         * the bucket holding the rank, clamped to [min, max].
         */
        double percentile(double p) const;
        double mean() const { return count ? sum / double(count) : 0.0; }
    };

    /** Merge all slots into one Data (no locks; relaxed reads). */
    Data data() const;

  private:
    friend class Registry;
    explicit Histogram(std::string name);

    struct alignas(64) Slot
    {
        std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<double> sum{0.0};
        std::atomic<double> min{0.0};
        std::atomic<double> max{0.0};
    };

    std::string name_;
    std::array<Slot, detail::kSlots> slots_;
};

/** Point-in-time merged view of a registry. */
struct Snapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Data>> histograms;

    /** {"counters":{...},"gauges":{...},"histograms":{...}} */
    Json toJson() const;

    /**
     * Prometheus text exposition: metric names are prefixed "laser_"
     * and dots become underscores; histograms emit cumulative _bucket
     * series plus _sum and _count.
     */
    std::string toPrometheus() const;

    /**
     * Rebuild a snapshot from toJson() output (the inverse transform;
     * bucket upper bounds saturated to DBL_MAX by toJson turn back into
     * +Inf). Returns false when @p doc is not a snapshot document.
     */
    static bool fromJson(const Json &doc, Snapshot *out);
};

/**
 * Escape a Prometheus label value per the text exposition format:
 * backslash, double quote and newline become \\, \" and \n.
 */
std::string promEscapeLabel(std::string_view value);

/**
 * Named-metric owner. Metric creation takes a lock; returned references
 * stay valid for the registry's lifetime. Most code uses the process
 * global(); tests may construct private registries.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    Snapshot snapshot() const;

  private:
    mutable util::Mutex mu_;
    /**
     * Name -> metric. The maps are guarded (creation and snapshot take
     * the lock); the metric objects themselves are lock-free — their
     * striped relaxed-atomic slots are the whole point — so the
     * references handed out stay valid and writable without mu_.
     */
    std::map<std::string, std::unique_ptr<Counter>> counters_
        GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        GUARDED_BY(mu_);
};

} // namespace laser::obs

#endif // LASER_OBS_METRICS_H
