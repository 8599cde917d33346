#include "obs/span.h"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace laser::obs {

namespace {

/** Small dense index of the calling thread, assigned on first use. */
std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

} // namespace

SpanCollector::SpanCollector()
    : origin_(std::chrono::steady_clock::now())
{
    if (std::getenv("LASER_TRACE_EVENTS") ||
            std::getenv("LASER_METRICS_OUT"))
        enable();
}

SpanCollector &
SpanCollector::global()
{
    // laser-lint: allow(raw-new-delete) — leaked singleton (spans may
    // fire during static teardown)
    static SpanCollector *g = new SpanCollector();
    return *g;
}

double
SpanCollector::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
SpanCollector::append(TraceEvent event)
{
    util::MutexLock lock(&mu_);
    events_.push_back(std::move(event));
}

std::vector<TraceEvent>
SpanCollector::events() const
{
    util::MutexLock lock(&mu_);
    return events_;
}

std::size_t
SpanCollector::eventCount() const
{
    util::MutexLock lock(&mu_);
    return events_.size();
}

void
SpanCollector::clear()
{
    util::MutexLock lock(&mu_);
    events_.clear();
}

namespace {

void
appendJsonNumber(std::string *out, double d)
{
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, d);
    out->append(buf, r.ptr);
}

} // namespace

std::string
SpanCollector::toTraceEventJson() const
{
    const std::vector<TraceEvent> snapshot = events();
    std::string out = "[\n";
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const TraceEvent &e = snapshot[i];
        out += R"({"name":")";
        // Span names are instrumentation literals (no escapes needed);
        // escape the quote/backslash anyway so the output stays valid
        // JSON for any name.
        for (char c : e.name) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        out += R"(","ph":"X","pid":1,"tid":)";
        out += std::to_string(e.tid);
        out += ",\"ts\":";
        appendJsonNumber(&out, e.tsUs);
        out += ",\"dur\":";
        appendJsonNumber(&out, e.durUs);
        out += "}";
        if (i + 1 < snapshot.size())
            out += ",";
        out += "\n";
    }
    out += "]\n";
    return out;
}

bool
SpanCollector::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const std::string json = toTraceEventJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

Span::Span(const char *name) : name_(name)
{
    // Snapshot the enabled state once: a toggle mid-span should not
    // produce a half-recorded event.
    armed_ = SpanCollector::global().enabled();
    if (armed_)
        start_ = std::chrono::steady_clock::now();
}

Span::~Span()
{
    if (!armed_)
        return;
    const auto end = std::chrono::steady_clock::now();
    SpanCollector &collector = SpanCollector::global();
    TraceEvent event;
    event.name = name_;
    event.tid = threadIndex();
    event.durUs =
        std::chrono::duration<double, std::micro>(end - start_).count();
    event.tsUs = collector.nowUs() - event.durUs;
    collector.append(std::move(event));
}

} // namespace laser::obs
