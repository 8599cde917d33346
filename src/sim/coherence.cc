#include "sim/coherence.h"

#include <bit>

namespace laser::sim {

const char *
accessOutcomeName(AccessOutcome outcome)
{
    switch (outcome) {
      case AccessOutcome::L1Hit:     return "l1-hit";
      case AccessOutcome::LlcHit:    return "llc-hit";
      case AccessOutcome::MemMiss:   return "mem-miss";
      case AccessOutcome::HitmLoad:  return "hitm-load";
      case AccessOutcome::HitmStore: return "hitm-store";
      case AccessOutcome::Upgrade:   return "upgrade";
      case AccessOutcome::RfoShared: return "rfo-shared";
    }
    return "???";
}

AccessOutcome
CoherenceDirectory::access(int core, std::uint64_t addr, bool is_write,
                           bool is_load_class)
{
    LineInfo &li = lines_[lineOf(addr)];
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

const CoherenceDirectory::LineInfo *
CoherenceDirectory::probe(std::uint64_t line_addr) const
{
    auto it = lines_.find(line_addr);
    return it == lines_.end() ? nullptr : &it->second;
}

bool
CoherenceDirectory::checkInvariants() const
{
    for (const auto &[line, li] : lines_) {
        if (li.sharers == 0)
            return false;
        if (li.modified && li.exclusive)
            return false;
        if (li.modified || li.exclusive) {
            if (std::popcount(li.sharers) != 1)
                return false;
            if (li.owner < 0 || li.owner >= numCores_)
                return false;
            if (li.sharers != (1u << li.owner))
                return false;
        }
        // No sharer bit past the last core (widened: 32 cores is a
        // full mask).
        if ((std::uint64_t{li.sharers} >> numCores_) != 0)
            return false;
    }
    return true;
}

} // namespace laser::sim
