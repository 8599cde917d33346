/**
 * @file
 * Directory-MESI behind the CoherenceProtocol interface.
 *
 * Transition-for-transition identical to the original
 * CoherenceDirectory (sim/coherence.h) at the default geometry — the
 * cross-protocol identity test replays every workload and requires a
 * bit-identical HITM event stream against goldens captured from the
 * pre-refactor directory.
 *
 * Invariant audit (Illinois clean-sharing rules): the original
 * directory's checkInvariants verified E/M => exactly one sharer equal
 * to the owner and never M && E; the audit found no transition
 * violating those, and added the stricter converse — a line that is
 * neither M nor E must have no owner (owner == -1) — which all
 * transitions also maintain. Both protocols' invariants are fuzzed
 * over random interleavings by the property tests.
 */

#ifndef LASER_SIM_PROTOCOL_MESI_H
#define LASER_SIM_PROTOCOL_MESI_H

#include <cstdint>
#include "sim/protocol.h"
#include "util/flat_table.h"

namespace laser::sim {

/** Directory-based MESI model, one entry per touched line. */
class MesiDirectory final : public CoherenceProtocol
{
  public:
    /** Per-line directory state (same layout as the pre-refactor
     *  CoherenceDirectory::LineInfo). */
    struct LineInfo
    {
        std::uint32_t sharers = 0; ///< bitmask of cores with a copy
        std::int8_t owner = -1;    ///< owning core when modified/exclusive
        bool modified = false;
        bool exclusive = false;
    };

    MesiDirectory(int num_cores, const CacheGeometry &geometry = {});

    ProtocolKind kind() const override { return ProtocolKind::Mesi; }

    AccessOutcome access(int core, std::uint64_t addr, bool is_write,
                         bool is_load_class) override;

    bool checkInvariants() const override;

    std::size_t linesTouched() const override { return lines_.size(); }

    /** Directory entry for a line address (nullptr if not resident). */
    const LineInfo *probe(std::uint64_t line_addr) const;

  private:
    /** The state change and outcome of one access to @p li. */
    AccessOutcome transition(LineInfo &li, int core, bool is_write,
                             bool is_load_class);

    FlatTable<LineInfo> lines_;
};

} // namespace laser::sim

#endif // LASER_SIM_PROTOCOL_MESI_H
