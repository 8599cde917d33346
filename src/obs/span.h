/**
 * @file
 * Scoped span tracing: RAII timers over the sweep/replay phases with a
 * Chrome trace-event-format exporter.
 *
 *     void digestShard() {
 *         LASER_SPAN("replay.shard");
 *         ...
 *     }
 *
 * A span records only while event collection is enabled — via
 * SpanCollector::global().enable() or automatically when the
 * LASER_TRACE_EVENTS or LASER_METRICS_OUT environment variable is set;
 * it then appends a complete ("ph":"X") trace event. Disabled, a span
 * costs one relaxed atomic load. writeFile() emits the buffer as one
 * JSON array with one event per line (line-oriented yet valid JSON),
 * loadable directly in chrome://tracing or Perfetto for flame-graph
 * inspection of a sweep.
 *
 * Span begin/end pairs on one thread are strictly nested (they are
 * scopes), which is exactly the invariant the trace viewers assume.
 */

#ifndef LASER_OBS_SPAN_H
#define LASER_OBS_SPAN_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace laser::obs {

/** One completed span, timestamps in microseconds since first use. */
struct TraceEvent
{
    std::string name;
    std::uint32_t tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;
};

class SpanCollector
{
  public:
    /**
     * The process collector. First access arms collection when
     * LASER_TRACE_EVENTS or LASER_METRICS_OUT is set in the
     * environment.
     */
    static SpanCollector &global();

    void enable() { enabled_.store(true, std::memory_order_relaxed); }
    void disable() { enabled_.store(false, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void append(TraceEvent event);
    std::vector<TraceEvent> events() const;
    std::size_t eventCount() const;
    void clear();

    /** The whole buffer in Chrome trace-event JSON (array format). */
    std::string toTraceEventJson() const;

    /** Write toTraceEventJson() to @p path; false on I/O error. */
    bool writeFile(const std::string &path) const;

    /** Microseconds since the collector's time origin. */
    double nowUs() const;

  private:
    SpanCollector();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point origin_;
    mutable util::Mutex mu_;
    std::vector<TraceEvent> events_ GUARDED_BY(mu_);
};

/**
 * RAII span. @p name must outlive the span (string literals only);
 * while collection is on it costs two clock reads and one buffer
 * append.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    bool armed_ = false;
    std::chrono::steady_clock::time_point start_;
};

#define LASER_SPAN_CONCAT2(a, b) a##b
#define LASER_SPAN_CONCAT(a, b) LASER_SPAN_CONCAT2(a, b)
/** Time the enclosing scope as a span named @p name_literal. */
#define LASER_SPAN(name_literal)                                         \
    ::laser::obs::Span LASER_SPAN_CONCAT(laser_span_,                    \
                                         __LINE__)(name_literal)

} // namespace laser::obs

#endif // LASER_OBS_SPAN_H
