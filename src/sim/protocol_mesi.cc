#include "sim/protocol_mesi.h"

#include <bit>

namespace laser::sim {

MesiDirectory::MesiDirectory(int num_cores, const CacheGeometry &geometry)
    : CoherenceProtocol(num_cores, geometry)
{
}

AccessOutcome
MesiDirectory::access(int core, std::uint64_t addr, bool is_write,
                      bool is_load_class)
{
    const std::uint64_t line = lineOf(addr);
    LineInfo &li = lines_[line];
    const std::uint32_t sharers_before = li.sharers;
    const std::int8_t owner_before = li.owner;
    const AccessOutcome outcome =
        transition(li, core, is_write, is_load_class);

    // Filter upkeep (sim/protocol.h): a write invalidated every other
    // copy; a read HITM left the old owner a clean sharer.
    if (is_write) {
        for (std::uint32_t others = sharers_before & ~(1u << core);
             others != 0; others &= others - 1)
            revoke(std::countr_zero(others), line);
    } else if (outcome == AccessOutcome::HitmLoad) {
        demote(owner_before, line);
    }
    grant(core, line, li.modified && li.owner == core);
    return outcome;
}

AccessOutcome
MesiDirectory::transition(LineInfo &li, int core, bool is_write,
                          bool is_load_class)
{
    const std::uint32_t me = 1u << core;
    const bool mine = (li.sharers & me) != 0;

    if (!is_write) {
        if (mine)
            return AccessOutcome::L1Hit;
        if (li.modified) {
            // Remote Modified: HITM. Owner writes back and both end Shared.
            li.modified = false;
            li.exclusive = false;
            li.owner = -1;
            li.sharers |= me;
            return AccessOutcome::HitmLoad;
        }
        if (li.sharers != 0) {
            li.exclusive = false;
            li.owner = -1;
            li.sharers |= me;
            return AccessOutcome::LlcHit;
        }
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.exclusive = true;
        return AccessOutcome::MemMiss;
    }

    // Write path.
    if (mine && (li.modified || li.exclusive) && li.owner == core) {
        li.modified = true;
        li.exclusive = false;
        return AccessOutcome::L1Hit;
    }
    if (mine) {
        // Local Shared copy: upgrade, invalidating remote sharers.
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.modified = true;
        li.exclusive = false;
        return AccessOutcome::Upgrade;
    }
    if (li.modified) {
        // Remote Modified: the HITM case. Ownership migrates.
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.modified = true;
        li.exclusive = false;
        return is_load_class ? AccessOutcome::HitmLoad
                             : AccessOutcome::HitmStore;
    }
    if (li.sharers != 0) {
        // Remote clean copies (E or S): invalidate them; not a HITM.
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.modified = true;
        li.exclusive = false;
        return AccessOutcome::RfoShared;
    }
    li.sharers = me;
    li.owner = static_cast<std::int8_t>(core);
    li.modified = true;
    li.exclusive = false;
    return AccessOutcome::MemMiss;
}

const MesiDirectory::LineInfo *
MesiDirectory::probe(std::uint64_t line_addr) const
{
    return lines_.find(line_addr);
}

bool
MesiDirectory::checkInvariants() const
{
    return lines_.allOf([this](const LineInfo &li) {
        if (li.sharers == 0)
            return false;
        if (li.modified && li.exclusive)
            return false;
        if (li.modified || li.exclusive) {
            // Illinois rules: a dirty (M) or exclusive-clean (E) line
            // has exactly one sharer, and that sharer is the owner — so
            // the owner is never in another line's sharer set here.
            if (std::popcount(li.sharers) != 1)
                return false;
            if (li.owner < 0 || li.owner >= numCores_)
                return false;
            if (li.sharers != (1u << li.owner))
                return false;
        } else if (li.owner != -1) {
            // Audit addition: Shared lines are unowned.
            return false;
        }
        // No sharer bit past the last core (widened: 32 cores is a
        // full mask).
        if ((std::uint64_t{li.sharers} >> numCores_) != 0)
            return false;
        return true;
    });
}

} // namespace laser::sim
