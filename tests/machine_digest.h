/**
 * @file
 * Order-sensitive FNV-1a digests of a machine run, shared by the golden
 * tests that pin whole runs: every MachineStats field, and a PMU sink
 * that folds every onHitm / onMemop / onSync callback (with all of its
 * arguments) into one stream hash. Field order must not change: the
 * golden tables were captured with exactly this code.
 */

#ifndef LASER_MACHINE_DIGEST_H
#define LASER_MACHINE_DIGEST_H

#include <cstdint>

#include "sim/hitm.h"
#include "sim/machine.h"

namespace laser::sim {

/** FNV-1a over the little-endian bytes of 64-bit words. */
struct Fnv64
{
    std::uint64_t hash = 1469598103934665603ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ULL;
        }
    }
};

/** Digest of every MachineStats field, per-thread vectors included. */
inline std::uint64_t
statsDigest(const MachineStats &s)
{
    Fnv64 h;
    for (std::uint64_t v :
         {s.cycles, s.instructions, s.loads, s.stores, s.atomics,
          s.l1Hits, s.llcHits, s.memMisses, s.upgrades, s.rfos,
          s.hitmLoads, s.hitmStores, s.syncOps, s.ssbStores,
          s.ssbLoadHits, s.ssbFlushes, s.ssbFlushedEntries,
          s.ssbMaxEntriesSeen, s.aliasChecks, s.aliasMisspecs})
        h.mix(v);
    h.mix(s.truncated ? 1 : 0);
    h.mix(s.threadCycles.size());
    for (std::uint64_t v : s.threadCycles)
        h.mix(v);
    h.mix(s.threadInstructions.size());
    for (std::uint64_t v : s.threadInstructions)
        h.mix(v);
    return h.hash;
}

/** Folds every PMU callback, in delivery order, into one hash. */
struct StreamHashSink final : PmuSink
{
    Fnv64 h;

    std::uint64_t
    onHitm(const HitmEvent &e) override
    {
        h.mix(1);
        h.mix(static_cast<std::uint64_t>(e.core));
        h.mix(e.pcIndex);
        h.mix(e.vaddr);
        h.mix(e.accessSize);
        h.mix(e.isLoadUop ? 1 : 0);
        h.mix(e.isStore ? 1 : 0);
        h.mix(e.cycle);
        return 0;
    }

    std::uint64_t
    onMemop(int core, std::uint32_t pc_index, bool is_write,
            std::uint64_t cycle) override
    {
        h.mix(2);
        h.mix(static_cast<std::uint64_t>(core));
        h.mix(pc_index);
        h.mix(is_write ? 1 : 0);
        h.mix(cycle);
        return 0;
    }

    std::uint64_t
    onSync(int core, isa::SyncKind kind, std::uint64_t dirty_pages,
           std::uint64_t cycle) override
    {
        h.mix(3);
        h.mix(static_cast<std::uint64_t>(core));
        h.mix(static_cast<std::uint64_t>(kind));
        h.mix(dirty_pages);
        h.mix(cycle);
        return 0;
    }
};

} // namespace laser::sim

#endif // LASER_MACHINE_DIGEST_H
