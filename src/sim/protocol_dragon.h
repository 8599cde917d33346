/**
 * @file
 * Snooping Dragon (update-based) coherence behind CoherenceProtocol.
 *
 * Dragon never invalidates: a write to a shared line broadcasts the
 * written bytes to every sharer instead. Per-copy states are E
 * (exclusive clean), Sc (shared clean), Sm (shared dirty, the owner)
 * and M (exclusive dirty); at most one cache holds a line dirty (Sm or
 * M) and that cache — not memory — services misses to the line. The
 * directory-style summary kept here per line is therefore: the sharer
 * bitmask, the dirty owner (or none), and whether a sole clean copy is
 * E (eligible for a silent E->M write).
 *
 * HITM outcomes fall out of real dirty interventions, not an outcome
 * table: an access misses, the snoop finds a remote M/Sm copy, and
 * that cache supplies the line cache-to-cache. Consequently a
 * false-sharing write ping-pong HITMs only on each core's first touch
 * — afterwards every write is a bus update into copies that stay valid
 * — which is exactly the fabric-robustness question the protocol sweep
 * measures (LASER's HITM-based signal starves under an update
 * protocol).
 *
 * Like MESI, capacity is not modeled (only the geometry's line size
 * applies): an update protocol's pathology is keeping stale sharers
 * live forever, which unbounded copies model faithfully.
 */

#ifndef LASER_SIM_PROTOCOL_DRAGON_H
#define LASER_SIM_PROTOCOL_DRAGON_H

#include <cstdint>
#include "sim/protocol.h"
#include "util/flat_table.h"

namespace laser::sim {

/** Snooping Dragon model, one entry per touched line. */
class DragonBus final : public CoherenceProtocol
{
  public:
    /** Per-line summary of the per-copy Dragon states. */
    struct LineInfo
    {
        std::uint32_t sharers = 0; ///< bitmask of cores with a copy
        /** Core holding the line dirty (M or Sm); -1 = clean everywhere. */
        std::int8_t owner = -1;
        /** Sole copy is E (clean); enables the silent E->M transition. */
        bool exclusiveClean = false;
    };

    DragonBus(int num_cores, const CacheGeometry &geometry = {});

    ProtocolKind kind() const override { return ProtocolKind::Dragon; }

    AccessOutcome access(int core, std::uint64_t addr, bool is_write,
                         bool is_load_class) override;

    bool checkInvariants() const override;

    std::size_t linesTouched() const override { return lines_.size(); }

    /** Line entry for a line address (nullptr if never touched). */
    const LineInfo *probe(std::uint64_t line_addr) const;

    /** Bus update broadcasts performed (write hits on shared lines). */
    std::uint64_t busUpdates() const { return busUpdates_; }

  private:
    /** The state change and outcome of one access to @p li. */
    AccessOutcome transition(LineInfo &li, int core, bool is_write,
                             bool is_load_class);

    FlatTable<LineInfo> lines_;
    std::uint64_t busUpdates_ = 0;
};

} // namespace laser::sim

#endif // LASER_SIM_PROTOCOL_DRAGON_H
