#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace laser::obs {

namespace {

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{[] {
        const char *env = std::getenv("LASER_OBS");
        return !(env && env[0] == '0' && env[1] == '\0');
    }()};
    return flag;
}

} // namespace

bool
enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (const detail::PaddedU64 &slot : slots_)
        total += slot.v.load(std::memory_order_relaxed);
    return total;
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram(std::string name) : name_(std::move(name))
{
    for (Slot &slot : slots_) {
        slot.min.store(std::numeric_limits<double>::infinity(),
                       std::memory_order_relaxed);
        slot.max.store(-std::numeric_limits<double>::infinity(),
                       std::memory_order_relaxed);
    }
}

int
Histogram::bucketOf(double value)
{
    if (!(value > 0.0)) // also catches NaN
        return 0;
    int exp = 0;
    const double m = std::frexp(value, &exp); // value = m * 2^exp
    if (exp - 1 < kMinExp)
        return 0;
    if (exp - 1 >= kMaxExp)
        return kBuckets - 1;
    int sub = static_cast<int>((m - 0.5) * (2 * kSubBuckets));
    if (sub < 0)
        sub = 0;
    if (sub >= kSubBuckets)
        sub = kSubBuckets - 1;
    return 1 + (exp - 1 - kMinExp) * kSubBuckets + sub;
}

double
Histogram::bucketUpperBound(int b)
{
    if (b <= 0)
        return std::ldexp(1.0, kMinExp);
    if (b >= kBuckets - 1)
        return std::numeric_limits<double>::infinity();
    const int idx = b - 1;
    const int octave = idx / kSubBuckets;
    const int sub = idx % kSubBuckets;
    return std::ldexp(1.0 + double(sub + 1) / kSubBuckets,
                      kMinExp + octave);
}

void
Histogram::record(double value)
{
    if (!enabled())
        return;
    Slot &slot = slots_[detail::slotIndex()];
    slot.counts[static_cast<std::size_t>(bucketOf(value))].fetch_add(
        1, std::memory_order_relaxed);
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.sum.fetch_add(value, std::memory_order_relaxed);
    double cur = slot.min.load(std::memory_order_relaxed);
    while (value < cur &&
           !slot.min.compare_exchange_weak(cur, value,
                                           std::memory_order_relaxed)) {
    }
    cur = slot.max.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.max.compare_exchange_weak(cur, value,
                                           std::memory_order_relaxed)) {
    }
}

Histogram::Data
Histogram::data() const
{
    Data out;
    std::array<std::uint64_t, kBuckets> merged{};
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    for (const Slot &slot : slots_) {
        for (int b = 0; b < kBuckets; ++b)
            merged[static_cast<std::size_t>(b)] +=
                slot.counts[static_cast<std::size_t>(b)].load(
                    std::memory_order_relaxed);
        out.count += slot.count.load(std::memory_order_relaxed);
        out.sum += slot.sum.load(std::memory_order_relaxed);
        min = std::min(min, slot.min.load(std::memory_order_relaxed));
        max = std::max(max, slot.max.load(std::memory_order_relaxed));
    }
    if (out.count > 0) {
        out.min = min;
        out.max = max;
    }
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t c = merged[static_cast<std::size_t>(b)];
        if (c > 0)
            out.buckets.emplace_back(bucketUpperBound(b), c);
    }
    return out;
}

double
Histogram::Data::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 1.0);
    const double rank = p * double(count);
    std::uint64_t seen = 0;
    for (const auto &[upper, c] : buckets) {
        seen += c;
        if (double(seen) >= rank) {
            // Geometric midpoint of the bucket, clamped to the exact
            // observed range (tight for the extreme buckets).
            double rep;
            if (!std::isfinite(upper)) {
                rep = max;
            } else {
                const double lower =
                    upper / (1.0 + 1.0 / double(kSubBuckets));
                rep = std::sqrt(lower * upper);
            }
            return std::min(std::max(rep, min), max);
        }
    }
    return max;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Registry &
Registry::global()
{
    // Leaked singleton: instrumentation may fire from detached threads
    // during process teardown, after static destructors would have run.
    // laser-lint: allow(raw-new-delete) — deliberate leak, see above
    static Registry *g = new Registry();
    return *g;
}

Counter &
Registry::counter(const std::string &name)
{
    util::MutexLock lock(&mu_);
    std::unique_ptr<Counter> &slot = counters_[name];
    if (!slot)
        // laser-lint: allow(raw-new-delete) — private ctor, Registry is
        // a friend; std::make_unique cannot reach it
        slot.reset(new Counter(name));
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    util::MutexLock lock(&mu_);
    std::unique_ptr<Gauge> &slot = gauges_[name];
    if (!slot)
        // laser-lint: allow(raw-new-delete) — private ctor, Registry is
        // a friend; std::make_unique cannot reach it
        slot.reset(new Gauge(name));
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    util::MutexLock lock(&mu_);
    std::unique_ptr<Histogram> &slot = histograms_[name];
    if (!slot)
        // laser-lint: allow(raw-new-delete) — private ctor, Registry is
        // a friend; std::make_unique cannot reach it
        slot.reset(new Histogram(name));
    return *slot;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    util::MutexLock lock(&mu_);
    for (const auto &[name, c] : counters_)
        snap.counters.emplace_back(name, c->value());
    for (const auto &[name, g] : gauges_)
        snap.gauges.emplace_back(name, g->value());
    for (const auto &[name, h] : histograms_)
        snap.histograms.emplace_back(name, h->data());
    return snap;
}

// ---------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------

Json
Snapshot::toJson() const
{
    Json counters_obj = Json::object();
    for (const auto &[name, v] : counters)
        counters_obj.set(name, Json(v));

    Json gauges_obj = Json::object();
    for (const auto &[name, v] : gauges)
        gauges_obj.set(name, Json(v));

    Json hists_obj = Json::object();
    for (const auto &[name, d] : histograms) {
        Json h = Json::object();
        h.set("count", Json(d.count));
        h.set("sum", Json(d.sum));
        h.set("min", Json(d.min));
        h.set("max", Json(d.max));
        h.set("mean", Json(d.mean()));
        h.set("p50", Json(d.percentile(0.50)));
        h.set("p90", Json(d.percentile(0.90)));
        h.set("p99", Json(d.percentile(0.99)));
        Json buckets = Json::array();
        for (const auto &[upper, c] : d.buckets) {
            Json pair = Json::array();
            pair.push(Json(std::isfinite(upper)
                               ? upper
                               : std::numeric_limits<double>::max()));
            pair.push(Json(c));
            buckets.push(std::move(pair));
        }
        h.set("buckets", std::move(buckets));
        hists_obj.set(name, std::move(h));
    }

    Json root = Json::object();
    root.set("counters", std::move(counters_obj));
    root.set("gauges", std::move(gauges_obj));
    root.set("histograms", std::move(hists_obj));
    return root;
}

bool
Snapshot::fromJson(const Json &doc, Snapshot *out)
{
    const Json *counters_obj = doc.find("counters");
    const Json *gauges_obj = doc.find("gauges");
    const Json *hists_obj = doc.find("histograms");
    if (!counters_obj || !counters_obj->isObject() || !gauges_obj ||
        !gauges_obj->isObject() || !hists_obj || !hists_obj->isObject())
        return false;

    Snapshot snap;
    for (const auto &[name, v] : counters_obj->members())
        snap.counters.emplace_back(
            name, static_cast<std::uint64_t>(v.asNumber()));
    for (const auto &[name, v] : gauges_obj->members())
        snap.gauges.emplace_back(name, v.asNumber());
    for (const auto &[name, h] : hists_obj->members()) {
        Histogram::Data d;
        if (const Json *v = h.find("count"))
            d.count = static_cast<std::uint64_t>(v->asNumber());
        if (const Json *v = h.find("sum"))
            d.sum = v->asNumber();
        if (const Json *v = h.find("min"))
            d.min = v->asNumber();
        if (const Json *v = h.find("max"))
            d.max = v->asNumber();
        if (const Json *buckets = h.find("buckets")) {
            for (const Json &pair : buckets->items()) {
                if (pair.items().size() != 2)
                    continue;
                // toJson saturates the overflow bucket's +Inf bound to
                // DBL_MAX (JSON has no Inf); undo that so re-exported
                // Prometheus text matches the live formatting.
                double upper = pair.items()[0].asNumber();
                if (upper >= std::numeric_limits<double>::max())
                    upper = std::numeric_limits<double>::infinity();
                d.buckets.emplace_back(
                    upper, static_cast<std::uint64_t>(
                               pair.items()[1].asNumber()));
            }
        }
        snap.histograms.emplace_back(name, std::move(d));
    }
    *out = std::move(snap);
    return true;
}

std::string
promEscapeLabel(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out.push_back(c);
        }
    }
    return out;
}

namespace {

std::string
promName(const std::string &name)
{
    std::string out = "laser_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string
promDouble(double d)
{
    if (std::isinf(d))
        return d > 0 ? "+Inf" : "-Inf";
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, d);
    return std::string(buf, r.ptr);
}

} // namespace

std::string
Snapshot::toPrometheus() const
{
    std::string out;
    for (const auto &[name, v] : counters) {
        const std::string pn = promName(name);
        out += "# TYPE " + pn + " counter\n";
        out += pn + " " + std::to_string(v) + "\n";
    }
    for (const auto &[name, v] : gauges) {
        const std::string pn = promName(name);
        out += "# TYPE " + pn + " gauge\n";
        out += pn + " " + promDouble(v) + "\n";
    }
    for (const auto &[name, d] : histograms) {
        const std::string pn = promName(name);
        out += "# TYPE " + pn + " histogram\n";
        std::uint64_t cum = 0;
        for (const auto &[upper, c] : d.buckets) {
            cum += c;
            out += pn + "_bucket{le=\"" +
                   promEscapeLabel(promDouble(upper)) + "\"} " +
                   std::to_string(cum) + "\n";
        }
        out += pn + "_bucket{le=\"+Inf\"} " + std::to_string(d.count) +
               "\n";
        out += pn + "_sum " + promDouble(d.sum) + "\n";
        out += pn + "_count " + std::to_string(d.count) + "\n";
    }
    return out;
}

} // namespace laser::obs
