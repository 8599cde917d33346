#include "sim/protocol_dragon.h"

#include <bit>

namespace laser::sim {

DragonBus::DragonBus(int num_cores, const CacheGeometry &geometry)
    : CoherenceProtocol(num_cores, geometry)
{
}

AccessOutcome
DragonBus::access(int core, std::uint64_t addr, bool is_write,
                  bool is_load_class)
{
    const std::uint64_t line = lineOf(addr);
    LineInfo &li = lines_[line];
    const std::int8_t owner_before = li.owner;
    const AccessOutcome outcome =
        transition(li, core, is_write, is_load_class);

    // Filter upkeep (sim/protocol.h): copies are never invalidated, but
    // when a sharer joins or ownership moves the previous owner is no
    // longer the owner and sole sharer.
    if (owner_before >= 0 && owner_before != core)
        demote(owner_before, line);
    grant(core, line, li.owner == core && li.sharers == (1u << core));
    return outcome;
}

AccessOutcome
DragonBus::transition(LineInfo &li, int core, bool is_write,
                      bool is_load_class)
{
    const std::uint32_t me = 1u << core;
    const bool mine = (li.sharers & me) != 0;
    const bool remote_dirty = li.owner >= 0 && li.owner != core;

    if (!is_write) {
        if (mine)
            return AccessOutcome::L1Hit;
        if (remote_dirty) {
            // Dirty intervention: the M/Sm holder supplies the line
            // cache-to-cache (the HITM) and *keeps ownership* as Sm —
            // no writeback, unlike MESI. The reader joins as Sc.
            li.sharers |= me;
            li.exclusiveClean = false;
            return AccessOutcome::HitmLoad;
        }
        if (li.sharers != 0) {
            // Clean copies exist; one (or memory) supplies. Reader Sc.
            li.sharers |= me;
            li.exclusiveClean = false;
            return AccessOutcome::LlcHit;
        }
        li.sharers = me;
        li.exclusiveClean = true;
        return AccessOutcome::MemMiss;
    }

    // Write path.
    if (mine) {
        const bool sole = std::popcount(li.sharers) == 1;
        if (li.owner == core && sole)
            return AccessOutcome::L1Hit; // M write hit
        if (li.owner == -1 && li.exclusiveClean) {
            // Silent E->M, the Illinois-style clean-exclusive upgrade.
            li.owner = static_cast<std::int8_t>(core);
            li.exclusiveClean = false;
            return AccessOutcome::L1Hit;
        }
        // Write hit on a shared copy (Sc or Sm): broadcast a bus
        // update. Every other copy stays valid (as Sc); the writer
        // becomes the dirty owner (Sm; M if it turns out sole). No
        // data is fetched from the previous owner — the copy here is
        // already valid — so this is an update, not a HITM.
        ++busUpdates_;
        li.owner = static_cast<std::int8_t>(core);
        li.exclusiveClean = false;
        return AccessOutcome::Upgrade;
    }
    if (remote_dirty) {
        // Write miss to a dirty remote line: the owner supplies it
        // cache-to-cache (HITM), the writer merges its bytes and
        // broadcasts the update; the writer is the new Sm owner and
        // the previous owner demotes to Sc.
        ++busUpdates_;
        li.sharers |= me;
        li.owner = static_cast<std::int8_t>(core);
        li.exclusiveClean = false;
        return is_load_class ? AccessOutcome::HitmLoad
                             : AccessOutcome::HitmStore;
    }
    if (li.sharers != 0) {
        // Write miss with clean remote copies: fetch + bus update;
        // remote copies stay valid as Sc (no invalidation), writer Sm.
        ++busUpdates_;
        li.sharers |= me;
        li.owner = static_cast<std::int8_t>(core);
        li.exclusiveClean = false;
        return AccessOutcome::RfoShared;
    }
    li.sharers = me;
    li.owner = static_cast<std::int8_t>(core);
    li.exclusiveClean = false;
    return AccessOutcome::MemMiss; // first touch, installs as M
}

const DragonBus::LineInfo *
DragonBus::probe(std::uint64_t line_addr) const
{
    return lines_.find(line_addr);
}

bool
DragonBus::checkInvariants() const
{
    return lines_.allOf([this](const LineInfo &li) {
        if (li.sharers == 0)
            return false;
        // No sharer bit past the last core (widened: 32 cores is a
        // full mask).
        if ((std::uint64_t{li.sharers} >> numCores_) != 0)
            return false;
        if (li.owner != -1) {
            // The dirty owner (M or Sm) must itself hold a copy; there
            // is at most one by construction (single owner field).
            if (li.owner < 0 || li.owner >= numCores_)
                return false;
            if ((li.sharers & (1u << li.owner)) == 0)
                return false;
        }
        if (li.exclusiveClean) {
            // E: sole copy, clean (Illinois clean-exclusive rule).
            if (std::popcount(li.sharers) != 1 || li.owner != -1)
                return false;
        }
        return true;
    });
}

} // namespace laser::sim
