/**
 * @file
 * Sheriff model (Liu & Berger, OOPSLA'11) — the paper's detection and
 * repair baseline (Sections 5, 7.3).
 *
 * Sheriff executes threads as processes: each thread works on private
 * pages and diffs/commits them at synchronization points. The machine's
 * threadsAsProcesses mode provides the execution semantics (no
 * coherence for non-atomic accesses — which is also why Sheriff-Protect
 * "fixes" false sharing even when Sheriff-Detect reports nothing); this
 * sink charges the commit costs:
 *
 *  - per sync operation: a fixed process-isolation cost plus a per-dirty-
 *    page twin-diff cost (this is why sync-intensive workloads like
 *    water_nsquared slow down ~5x, Figure 14);
 *  - Sheriff-Detect additionally write-protects pages periodically and
 *    pays fault costs on first writes.
 *
 * Compatibility (crashes, unsupported pthreads/OpenMP) and whether
 * Sheriff-Detect's object-granularity heuristics catch a bug are encoded
 * from Table 1/2 in the workload metadata; Sheriff's internal detection
 * heuristics are out of reproduction scope (see DESIGN.md).
 */

#ifndef LASER_BASELINES_SHERIFF_H
#define LASER_BASELINES_SHERIFF_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/types.h"
#include "pebs/record.h"
#include "sim/hitm.h"

namespace laser::baselines {

/** Sheriff cost-model tuning. */
struct SheriffConfig
{
    /** Fixed cost per synchronization operation (process handoff). */
    std::uint64_t syncBaseCost = 2500;
    /** Twin-page diff + commit cost per dirty page. */
    std::uint64_t perDirtyPageCost = 4200;
    /** Extra per-sync cost in Sheriff-Detect (periodic protection). */
    std::uint64_t detectExtraCost = 2600;
    /** Detect mode (adds protection costs) vs Protect mode. */
    bool detectMode = false;
};

/** Commit cost of one sync operation under @p cfg (model and replay). */
inline std::uint64_t
sheriffSyncCost(const SheriffConfig &cfg, std::uint64_t dirty_pages)
{
    std::uint64_t cost =
        cfg.syncBaseCost + dirty_pages * cfg.perDirtyPageCost;
    if (cfg.detectMode)
        cost += cfg.detectExtraCost;
    return cost;
}

/** Sheriff-Detect output: falsely-shared objects by allocation site. */
struct SheriffReport
{
    /** Allocation sites of objects reported as falsely shared. */
    std::vector<std::string> reportedSites;
    std::uint64_t syncOps = 0;
    std::uint64_t dirtyPagesCommitted = 0;
    /** Commit cycles this model charged to the application. */
    std::uint64_t chargedCycles = 0;
};

/**
 * Encode one sync operation as an analysis record so Sheriff runs can
 * stream through the scheme-agnostic sink/trace plumbing: pc carries the
 * sync kind, dataAddr the dirty-page count.
 */
inline pebs::PebsRecord
encodeSheriffSync(int core, isa::SyncKind kind, std::uint64_t dirty_pages,
                  std::uint64_t cycle)
{
    pebs::PebsRecord rec;
    rec.pc = static_cast<std::uint64_t>(kind);
    rec.dataAddr = dirty_pages;
    rec.core = core;
    rec.cycle = cycle;
    return rec;
}

/** Decode the dirty-page count of an encoded sync record. */
inline std::uint64_t
sheriffSyncDirtyPages(const pebs::PebsRecord &rec)
{
    return rec.dataAddr;
}

/**
 * The cost-charging sink. It also records each sync op as an analysis
 * record; replaySheriffStream() turns that stream into the report.
 */
class SheriffModel : public sim::PmuSink
{
  public:
    explicit SheriffModel(SheriffConfig cfg = {}) : cfg_(cfg) {}

    std::uint64_t
    onSync(int core, isa::SyncKind kind, std::uint64_t dirty_pages,
           std::uint64_t cycle) override
    {
        records_.push_back(encodeSheriffSync(core, kind, dirty_pages, cycle));
        return sheriffSyncCost(cfg_, dirty_pages);
    }

    /** Sync stream in delivery order (sort before analyzing). */
    const std::vector<pebs::PebsRecord> &records() const
    {
        return records_;
    }

  private:
    SheriffConfig cfg_;
    std::vector<pebs::PebsRecord> records_;
};

/** Rebuild a SheriffReport offline from an encoded sync stream. */
inline SheriffReport
replaySheriffStream(const std::vector<pebs::PebsRecord> &records,
                    const SheriffConfig &cfg)
{
    SheriffReport r;
    for (const pebs::PebsRecord &rec : records) {
        ++r.syncOps;
        const std::uint64_t dirty = sheriffSyncDirtyPages(rec);
        r.dirtyPagesCommitted += dirty;
        r.chargedCycles += sheriffSyncCost(cfg, dirty);
    }
    return r;
}

} // namespace laser::baselines

#endif // LASER_BASELINES_SHERIFF_H
