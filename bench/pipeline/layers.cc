#include "layers.h"

#include <array>

#include "util/mutex.h"
#include "util/stats.h"

namespace laser::benchpipe {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
constexpr std::size_t kCounts = static_cast<std::size_t>(Count::kCount);

// metric / span name, unit, ns -> unit scale, inclusive, span per call
constexpr std::array<LayerInfo, kLayers> kLayerInfo = {{
    {"workloads.build_us", "us", 1e-3, false, true},
    {"sim.native_ns_per_instr", "ns", 1.0, false, true},
    {"sim.run_self_ns_per_instr", "ns", 1.0, false, true},
    {"protocol.mesi.access_ns", "ns", 1.0, false, true},
    {"protocol.dragon.access_ns", "ns", 1.0, false, true},
    {"pebs.on_hitm_ns", "ns", 1.0, false, false},
    {"analysis.sort_ns_per_record", "ns", 1.0, false, true},
    {"trace.encode_ns_per_record", "ns", 1.0, false, true},
    {"trace.open_us", "us", 1e-3, false, true},
    {"trace.replay_env_us", "us", 1e-3, false, true},
    {"trace.decode_ns_per_record", "ns", 1.0, false, true},
    {"detect.digest_ns_per_record", "ns", 1.0, false, true},
    {"detect.sharded_digest_ms", "ms", 1e-6, true, true},
    {"detect.merge_us", "us", 1e-3, false, true},
    {"detect.rate_scan_ns_per_event", "ns", 1.0, false, false},
    {"detect.report_us", "us", 1e-3, false, false},
    {"detect.stream_ns_per_record", "ns", 1.0, false, true},
    {"core.accuracy_us", "us", 1e-3, false, false},
    {"repair.analyze_us", "us", 1e-3, false, true},
    {"repair.instrument_us", "us", 1e-3, false, true},
    {"repair.rerun_ns_per_instr", "ns", 1.0, false, true},
}};

struct LayerAcc
{
    std::atomic<std::int64_t> selfNs{0};
    std::atomic<std::int64_t> totalNs{0};
    std::atomic<std::uint64_t> units{0};
};

struct BankAcc
{
    std::array<LayerAcc, kLayers> layers;
    std::array<std::atomic<std::uint64_t>, kCounts> counts{};
    std::atomic<std::uint64_t> passes{0};
    util::Mutex mu;
    std::vector<std::array<double, 3>> sweepPhases GUARDED_BY(mu);
};

std::array<BankAcc, 2> g_banks;
std::atomic<int> g_bank{0};

BankAcc &
currentBank()
{
    return g_banks[static_cast<std::size_t>(g_bank.load())];
}

/** Innermost open LayerScope of this thread. */
thread_local LayerScope *t_scope = nullptr;

/** Calibrated cost of one empty timed onHitm call (see header). */
double g_emptyCallWallNs = 0.0;
double g_emptyCallTimedNs = 0.0;

std::int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

} // namespace

const LayerInfo &
layerInfo(Layer layer)
{
    return kLayerInfo[static_cast<std::size_t>(layer)];
}

void
setBank(Bank bank)
{
    g_bank.store(static_cast<int>(bank));
}

void
addLayer(Layer layer, std::int64_t self_ns, std::int64_t total_ns,
         std::uint64_t units)
{
    LayerAcc &acc = currentBank().layers[static_cast<std::size_t>(layer)];
    acc.selfNs.fetch_add(self_ns, std::memory_order_relaxed);
    acc.totalNs.fetch_add(total_ns, std::memory_order_relaxed);
    acc.units.fetch_add(units, std::memory_order_relaxed);
}

void
addCount(Count count, std::uint64_t n)
{
    currentBank().counts[static_cast<std::size_t>(count)].fetch_add(
        n, std::memory_order_relaxed);
}

void
addPass()
{
    currentBank().passes.fetch_add(1);
}

void
addSweepPhases(double capture_s, double digest_s, double replay_s)
{
    BankAcc &bank = currentBank();
    util::MutexLock lock(&bank.mu);
    bank.sweepPhases.push_back({capture_s, digest_s, replay_s});
}

std::optional<double>
layerValue(Layer layer)
{
    const LayerInfo &info = layerInfo(layer);
    for (BankAcc &bank : g_banks) {
        const LayerAcc &acc = bank.layers[static_cast<std::size_t>(layer)];
        const std::uint64_t units = acc.units.load();
        if (units == 0)
            continue;
        const std::int64_t ns =
            info.inclusive ? acc.totalNs.load() : acc.selfNs.load();
        return double(ns) * info.scale / double(units);
    }
    return std::nullopt;
}

double
countValue(Count count)
{
    const BankAcc &bank = g_banks[0];
    const std::uint64_t passes = bank.passes.load();
    if (passes == 0)
        return 0.0;
    return double(bank.counts[static_cast<std::size_t>(count)].load()) /
           double(passes);
}

std::optional<std::vector<double>>
sweepPhases()
{
    for (BankAcc &bank : g_banks) {
        util::MutexLock lock(&bank.mu);
        if (bank.sweepPhases.empty())
            continue;
        std::vector<double> out;
        for (std::size_t phase = 0; phase < 3; ++phase) {
            std::vector<double> v;
            for (const auto &p : bank.sweepPhases)
                v.push_back(p[phase]);
            out.push_back(median(v));
        }
        return out;
    }
    return std::nullopt;
}

LayerScope::LayerScope(Layer layer, std::uint64_t units)
    : layer_(layer), units_(units), parent_(t_scope)
{
    if (layerInfo(layer).span)
        span_.emplace(layerInfo(layer).metric);
    t_scope = this;
    start_ = Clock::now();
}

LayerScope::~LayerScope()
{
    const std::int64_t total = nsSince(start_);
    addLayer(layer_, total - childNs_, total, units_);
    if (parent_)
        parent_->childNs_ += total;
    t_scope = parent_;
}

std::uint64_t
TimedPmuSink::onHitm(const sim::HitmEvent &event)
{
    const Clock::time_point start = Clock::now();
    const std::uint64_t cost = inner_.onHitm(event);
    ns_ += nsSince(start);
    ++calls_;
    return cost;
}

std::uint64_t
TimedPmuSink::onMemop(int core, std::uint32_t pc_index, bool is_write,
                      std::uint64_t cycle)
{
    return inner_.onMemop(core, pc_index, is_write, cycle);
}

std::uint64_t
TimedPmuSink::onSync(int core, isa::SyncKind kind, std::uint64_t dirty_pages,
                     std::uint64_t cycle)
{
    return inner_.onSync(core, kind, dirty_pages, cycle);
}

void
TimedPmuSink::settle(LayerScope &run) const
{
    const double calls = double(calls_);
    const auto net = static_cast<std::int64_t>(double(ns_) -
                                               calls * g_emptyCallTimedNs);
    addLayer(Layer::PebsOnHitm, net, net, calls_);
    run.excludeNs(net + static_cast<std::int64_t>(calls * g_emptyCallWallNs));
}

void
calibrateTimedSink()
{
    sim::PmuSink empty;
    TimedPmuSink timed(empty);
    // Call through a base pointer the optimizer cannot see through, as
    // the machine does.
    sim::PmuSink *volatile sink = &timed;
    const sim::HitmEvent event;
    constexpr int kCalls = 1 << 20;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i)
        sink->onHitm(event);
    g_emptyCallWallNs = double(nsSince(start)) / kCalls;
    g_emptyCallTimedNs = double(timed.timedNs()) / kCalls;
}

} // namespace laser::benchpipe
