/**
 * @file
 * Unit tests for the observability layer: JSON round-trips, lock-free
 * counter exactness under contention, histogram percentile accuracy,
 * span nesting, the trace-event / snapshot export formats, run
 * identity and the BENCH_<name>.json document BenchReport writes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace laser::obs {
namespace {

/** Ensure recording is on regardless of the ambient LASER_OBS. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override { setEnabled(true); }
    void TearDown() override { setEnabled(true); }
};

// ---------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------

TEST(Json, RoundTripsNestedDocument)
{
    Json doc = Json::object();
    doc.set("int", Json(std::uint64_t(1234567890123)));
    doc.set("neg", Json(-42));
    doc.set("pi", Json(3.25));
    doc.set("flag", Json(true));
    doc.set("none", Json());
    doc.set("text", Json(std::string("line\n\"quoted\"\ttab")));
    Json arr = Json::array();
    arr.push(Json(1)).push(Json(std::string("two"))).push(Json(false));
    doc.set("arr", std::move(arr));
    Json inner = Json::object();
    inner.set("k", Json(0.5));
    doc.set("obj", std::move(inner));

    for (int indent : {0, 2}) {
        Json back;
        std::string err;
        ASSERT_TRUE(Json::parse(doc.dump(indent), &back, &err)) << err;
        EXPECT_EQ(back.dump(), doc.dump());
    }
}

TEST(Json, ExactIntegersAndMemberOrder)
{
    Json doc = Json::object();
    doc.set("b", Json(std::uint64_t(9007199254740992ull))); // 2^53
    doc.set("a", Json(7));
    const std::string text = doc.dump();
    // Insertion order preserved; integers printed without exponent.
    EXPECT_EQ(text, "{\"b\":9007199254740992,\"a\":7}");
}

TEST(Json, RejectsMalformedInput)
{
    Json out;
    EXPECT_FALSE(Json::parse("", &out));
    EXPECT_FALSE(Json::parse("{", &out));
    EXPECT_FALSE(Json::parse("[1,]", &out));
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &out));
    EXPECT_FALSE(Json::parse("'single'", &out));
    EXPECT_FALSE(Json::parse("{\"a\" 1}", &out));
}

TEST(Json, FindAndAccessors)
{
    Json doc;
    ASSERT_TRUE(Json::parse(
        "{\"n\":4.5,\"b\":true,\"s\":\"hi\",\"a\":[1,2]}", &doc));
    ASSERT_NE(doc.find("n"), nullptr);
    EXPECT_DOUBLE_EQ(doc.find("n")->asNumber(), 4.5);
    EXPECT_TRUE(doc.find("b")->asBool());
    EXPECT_EQ(doc.find("s")->asString(), "hi");
    ASSERT_TRUE(doc.find("a")->isArray());
    EXPECT_EQ(doc.find("a")->items().size(), 2u);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

// ---------------------------------------------------------------------
// Counters / gauges
// ---------------------------------------------------------------------

TEST_F(ObsTest, ConcurrentCounterIncrementsSumExactly)
{
    Registry reg;
    Counter &c = reg.counter("test.hits");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, CounterHonorsKillSwitch)
{
    Registry reg;
    Counter &c = reg.counter("test.off");
    c.inc(5);
    setEnabled(false);
    c.inc(100);
    setEnabled(true);
    c.inc(2);
    EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsTest, RegistryReturnsStableHandles)
{
    Registry reg;
    Counter &a = reg.counter("same");
    Counter &b = reg.counter("same");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST_F(ObsTest, GaugeSetAndAdd)
{
    Registry reg;
    Gauge &g = reg.gauge("test.depth");
    g.set(10.0);
    g.add(5.0);
    g.add(-7.0);
    EXPECT_DOUBLE_EQ(g.value(), 8.0);
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

TEST_F(ObsTest, HistogramExactCountSumMinMax)
{
    Registry reg;
    Histogram &h = reg.histogram("test.lat");
    for (int i = 1; i <= 1000; ++i)
        h.record(double(i));
    const Histogram::Data d = h.data();
    EXPECT_EQ(d.count, 1000u);
    EXPECT_DOUBLE_EQ(d.sum, 500500.0);
    EXPECT_DOUBLE_EQ(d.min, 1.0);
    EXPECT_DOUBLE_EQ(d.max, 1000.0);
    EXPECT_DOUBLE_EQ(d.mean(), 500.5);
}

TEST_F(ObsTest, HistogramPercentilesMatchKnownDistribution)
{
    Registry reg;
    Histogram &h = reg.histogram("test.uniform");
    // Uniform 1..10000: p50 ~ 5000, p90 ~ 9000, p99 ~ 9900. Log-scale
    // buckets with 4 sub-buckets per octave bound the relative error of
    // any in-bucket estimate by ~ sqrt(1.25) - 1 ~ 12%.
    for (int i = 1; i <= 10000; ++i)
        h.record(double(i));
    const Histogram::Data d = h.data();
    EXPECT_NEAR(d.percentile(0.50), 5000.0, 0.12 * 5000.0);
    EXPECT_NEAR(d.percentile(0.90), 9000.0, 0.12 * 9000.0);
    EXPECT_NEAR(d.percentile(0.99), 9900.0, 0.12 * 9900.0);
    // The extremes stay within the exact observed range (bucket
    // midpoints clamped to [min, max]).
    EXPECT_GE(d.percentile(0.0), d.min);
    EXPECT_LE(d.percentile(0.0), d.min * 1.25);
    EXPECT_LE(d.percentile(1.0), d.max);
    EXPECT_NEAR(d.percentile(1.0), d.max, 0.12 * d.max);
}

TEST_F(ObsTest, HistogramSpansManyOrdersOfMagnitude)
{
    Registry reg;
    Histogram &h = reg.histogram("test.wide");
    h.record(1e-9); // nanosecond-scale span
    h.record(1.0);
    h.record(3e9); // multi-billion cycle epoch
    const Histogram::Data d = h.data();
    EXPECT_EQ(d.count, 3u);
    EXPECT_DOUBLE_EQ(d.min, 1e-9);
    EXPECT_DOUBLE_EQ(d.max, 3e9);
    EXPECT_EQ(d.buckets.size(), 3u);
}

TEST_F(ObsTest, HistogramBucketBoundsAreMonotonic)
{
    double prev = 0.0;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
        const double upper = Histogram::bucketUpperBound(b);
        EXPECT_GT(upper, prev);
        prev = upper;
    }
    // Every positive value lands in a bucket whose bound contains it
    // (exact powers of two sit on the preceding bound inclusively).
    for (double v : {1e-8, 0.37, 1.0, 6.5, 1234.5, 8.9e8}) {
        const int b = Histogram::bucketOf(v);
        EXPECT_LE(v, Histogram::bucketUpperBound(b));
        if (b > 1)
            EXPECT_GE(v, Histogram::bucketUpperBound(b - 1));
    }
}

TEST_F(ObsTest, ConcurrentHistogramRecordsSumExactly)
{
    Registry reg;
    Histogram &h = reg.histogram("test.par");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h] {
            for (int i = 1; i <= kPerThread; ++i)
                h.record(double(i));
        });
    for (auto &t : threads)
        t.join();
    const Histogram::Data d = h.data();
    EXPECT_EQ(d.count, std::uint64_t(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(d.min, 1.0);
    EXPECT_DOUBLE_EQ(d.max, double(kPerThread));
}

// ---------------------------------------------------------------------
// Snapshot export formats
// ---------------------------------------------------------------------

TEST_F(ObsTest, SnapshotToJsonHasAllSections)
{
    Registry reg;
    reg.counter("c.one").inc(4);
    reg.gauge("g.one").set(2.5);
    reg.histogram("h.one").record(3.0);
    // Past the last finite bound: the +Inf overflow bucket, whose bound
    // the document saturates to DBL_MAX (JSON has no Inf).
    reg.histogram("h.overflow").record(1e12);

    const Json doc = reg.snapshot().toJson();
    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(doc.dump(2), &back, &err)) << err;

    ASSERT_NE(back.find("counters"), nullptr);
    EXPECT_DOUBLE_EQ(back.find("counters")->find("c.one")->asNumber(),
                     4.0);
    ASSERT_NE(back.find("gauges"), nullptr);
    EXPECT_DOUBLE_EQ(back.find("gauges")->find("g.one")->asNumber(),
                     2.5);
    const Json *h = back.find("histograms")->find("h.one");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->find("count")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(h->find("sum")->asNumber(), 3.0);
    ASSERT_NE(h->find("buckets"), nullptr);
    EXPECT_EQ(h->find("buckets")->items().size(), 1u);
    const Json *overflow = back.find("histograms")->find("h.overflow");
    ASSERT_NE(overflow, nullptr);
    const std::vector<Json> &buckets = overflow->find("buckets")->items();
    ASSERT_EQ(buckets.size(), 1u);
    ASSERT_EQ(buckets[0].items().size(), 2u);
    EXPECT_EQ(buckets[0].items()[0].asNumber(),
              std::numeric_limits<double>::max());
    EXPECT_DOUBLE_EQ(buckets[0].items()[1].asNumber(), 1.0);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

TEST_F(ObsTest, SpanNestingProducesWellFormedTraceEvents)
{
    SpanCollector &col = SpanCollector::global();
    col.clear();
    col.enable();
    {
        LASER_SPAN("outer");
        {
            LASER_SPAN("inner");
        }
        {
            LASER_SPAN("inner");
        }
    }
    col.disable();

    ASSERT_EQ(col.eventCount(), 3u);
    // Scopes close innermost-first, so "outer" is appended last.
    const std::vector<TraceEvent> events = col.events();
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[2].name, "outer");
    // Strict nesting: the outer span covers both inner spans (allow a
    // few microseconds of slack for the separate clock reads that
    // derive ts from dur).
    const double slack_us = 50.0;
    EXPECT_LE(events[2].tsUs, events[0].tsUs + slack_us);
    EXPECT_GE(events[2].tsUs + events[2].durUs + slack_us,
              events[1].tsUs + events[1].durUs);

    // The export parses back as a JSON array of complete events.
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(col.toTraceEventJson(), &doc, &err)) << err;
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.items().size(), 3u);
    for (const Json &ev : doc.items()) {
        ASSERT_TRUE(ev.isObject());
        EXPECT_EQ(ev.find("ph")->asString(), "X");
        EXPECT_NE(ev.find("name"), nullptr);
        EXPECT_GE(ev.find("dur")->asNumber(), 0.0);
        EXPECT_GE(ev.find("ts")->asNumber(), 0.0);
        EXPECT_NE(ev.find("tid"), nullptr);
    }
    col.clear();
}

TEST_F(ObsTest, SpanFeedsDurationHistogram)
{
    const std::string name = "span.test_obs.timer";
    const std::uint64_t before = [&] {
        for (const auto &[n, d] :
             Registry::global().snapshot().histograms)
            if (n == name)
                return d.count;
        return std::uint64_t(0);
    }();
    {
        Span span("test_obs.timer");
    }
    const Histogram::Data d =
        Registry::global().histogram(name).data();
    EXPECT_EQ(d.count, before + 1);
}

TEST_F(ObsTest, SpansSkippedWhenDisabled)
{
    SpanCollector &col = SpanCollector::global();
    col.clear();
    col.enable();
    setEnabled(false); // obs kill switch beats collector enablement
    {
        LASER_SPAN("ghost");
    }
    setEnabled(true);
    col.disable();
    EXPECT_EQ(col.eventCount(), 0u);
    col.clear();
}

// ---------------------------------------------------------------------
// Run identity and BENCH documents
// ---------------------------------------------------------------------

/** Sets (or, with nullopt, unsets) an environment variable for one
 *  scope and restores its previous value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, std::optional<std::string> value)
        : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        set(value);
    }
    ~ScopedEnv() { set(old_); }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    void
    set(const std::optional<std::string> &value)
    {
        if (value)
            setenv(name_, value->c_str(), 1);
        else
            unsetenv(name_);
    }

    const char *name_;
    std::optional<std::string> old_;
};

/** Fresh, empty directory under the system temp dir. */
std::filesystem::path
freshDir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("laser_test_obs_" + tag + "_" + std::to_string(getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(Export, RunContextIsFullyPopulated)
{
    const RunContext ctx = currentRunContext();
    EXPECT_FALSE(ctx.gitSha.empty());
    EXPECT_FALSE(ctx.hostname.empty());
    EXPECT_GT(ctx.unixTime, 1577836800); // after 2020-01-01
    ASSERT_EQ(ctx.configHash.size(), 16u);
    for (char c : ctx.configHash)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << ctx.configHash;
}

TEST(Export, ConfigHashTracksBehaviorKnobsNotTelemetryPaths)
{
    const std::string before = currentRunContext().configHash;
    {
        // A behavior-affecting LASER_* knob changes the fingerprint...
        ScopedEnv knob("LASER_TEST_KNOB", "42");
        const std::string withKnob = currentRunContext().configHash;
        EXPECT_NE(withKnob, before);

        // ...but telemetry destinations are excluded, so writing the
        // same run's artifacts somewhere else keeps runs comparable.
        ScopedEnv metrics("LASER_METRICS_OUT", "/tmp/elsewhere");
        ScopedEnv trace("LASER_TRACE_EVENTS", "/tmp/elsewhere.json");
        EXPECT_EQ(currentRunContext().configHash, withKnob);
    }
    EXPECT_EQ(currentRunContext().configHash, before);
}

TEST(Export, ProcessCpuSecondsIsNonNegativeAndMonotonic)
{
    const double a = processCpuSeconds();
    EXPECT_GE(a, 0.0);
    // Burn a little CPU; the counter must not go backwards.
    volatile double sink = 0.0;
    for (int i = 0; i < 1000000; ++i)
        sink = sink + i * 1e-9;
    EXPECT_GE(processCpuSeconds(), a);
}

TEST(Export, BenchReportWritesSchemaV2Document)
{
    const std::filesystem::path dir = freshDir("bench");
    {
        ScopedEnv metrics("LASER_METRICS_OUT", dir.string());
        BenchReport report("test_obs_write");
        report.results().set("answer", Json(42));
        report.setSweep(3, 2, 1);
        ASSERT_TRUE(report.write());
        EXPECT_EQ(report.path(),
                  (dir / "BENCH_test_obs_write.json").string());

        std::ifstream in(report.path());
        ASSERT_TRUE(in) << report.path();
        std::stringstream text;
        text << in.rdbuf();
        Json doc;
        std::string err;
        ASSERT_TRUE(Json::parse(text.str(), &doc, &err)) << err;

        EXPECT_EQ(doc.find("schema_version")->asNumber(),
                  kBenchSchemaVersion);
        EXPECT_EQ(kBenchSchemaVersion, 2);
        EXPECT_EQ(doc.find("bench")->asString(), "test_obs_write");
        EXPECT_GE(doc.find("wall_seconds")->asNumber(-1.0), 0.0);

        const Json *run = doc.find("run");
        ASSERT_NE(run, nullptr);
        ASSERT_TRUE(run->isObject());
        for (const char *key : {"git_sha", "config_hash", "hostname"}) {
            const Json *v = run->find(key);
            ASSERT_NE(v, nullptr) << key;
            EXPECT_TRUE(v->isString()) << key;
            EXPECT_FALSE(v->asString().empty()) << key;
        }
        EXPECT_EQ(run->find("config_hash")->asString(),
                  currentRunContext().configHash);
        EXPECT_GT(run->find("unix_time")->asNumber(), 1577836800);
        EXPECT_GE(run->find("cpu_seconds")->asNumber(-1.0), 0.0);

        const Json *sweep = doc.find("sweep");
        ASSERT_NE(sweep, nullptr);
        EXPECT_EQ(sweep->find("machine_runs")->asNumber(), 3);
        EXPECT_EQ(sweep->find("memory_cache_hits")->asNumber(), 2);
        EXPECT_EQ(sweep->find("disk_cache_hits")->asNumber(), 1);
        EXPECT_EQ(doc.find("results")->find("answer")->asNumber(), 42);

        const Json *artifacts = doc.find("artifacts");
        ASSERT_NE(artifacts, nullptr);
        EXPECT_EQ(artifacts->find("bench_json")->asString(),
                  report.path());
        EXPECT_TRUE(std::filesystem::exists(
            artifacts->find("metrics_json")->asString()));
        // JSON is the one metrics format: no other metrics artifact is
        // listed, and no Prometheus text is written beside it.
        for (const auto &[key, value] : artifacts->members())
            EXPECT_TRUE(key == "bench_json" || key == "metrics_json" ||
                        key == "trace_json")
                << key;
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            EXPECT_NE(entry.path().extension(), ".prom") << entry.path();
        EXPECT_NE(doc.find("metrics"), nullptr);
    }
    // The constructor armed span collection for the bench run.
    SpanCollector::global().disable();
    SpanCollector::global().clear();
    std::filesystem::remove_all(dir);
}

TEST(Export, BenchReportWithoutMetricsDirWritesNothing)
{
    const std::filesystem::path dir = freshDir("inert");
    const std::filesystem::path history = dir / "runs.jsonl";
    {
        // The retired run-history variable names no destination: only
        // LASER_METRICS_OUT makes write() produce a file.
        ScopedEnv metrics("LASER_METRICS_OUT", std::nullopt);
        ScopedEnv retired("LASER_LEDGER", history.string());
        BenchReport report("test_obs_inert");
        EXPECT_EQ(report.path(), "");
        EXPECT_FALSE(report.write());
    }
    EXPECT_FALSE(std::filesystem::exists(history));
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace laser::obs
