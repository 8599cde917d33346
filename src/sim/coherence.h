/**
 * @file
 * MESI coherence directory for the simulated multicore.
 *
 * HITM events — the signal LASER is built on — are defined by one specific
 * transition: a core accesses a line that is Modified in a *remote* cache
 * (Figure 1 (a) and (c)). The directory tracks, per 64-byte line, the
 * sharer set and the owning core, and reports the outcome class of every
 * access so the machine can charge latency and raise HITM events.
 *
 * Capacity and evictions are not modeled: contention behaviour is driven
 * by coherence-state transitions, not capacity misses, and the paper's
 * detection pipeline is agnostic to them. The first touch of a line is a
 * memory miss; everything after is classified by MESI state.
 *
 * The machine now runs protocol backends behind sim::CoherenceProtocol
 * (protocol.h); CoherenceDirectory is retained as the fixed pre-refactor
 * reference implementation that test_protocol fuzzes MesiDirectory
 * against, outcome for outcome.
 */

#ifndef LASER_SIM_COHERENCE_H
#define LASER_SIM_COHERENCE_H

#include <cstdint>
#include <unordered_map>

namespace laser::sim {

/** Classification of one memory access by the coherence protocol. */
enum class AccessOutcome : std::uint8_t {
    L1Hit,     ///< line valid locally in a sufficient state
    LlcHit,    ///< read served by LLC / a clean remote copy
    MemMiss,   ///< first touch, served by memory
    HitmLoad,  ///< HITM: remote-M line, access has a load uop (Fig. 1a)
    HitmStore, ///< HITM: remote-M line, pure store (Fig. 1c)
    Upgrade,   ///< local S copy upgraded to M (invalidates remote sharers)
    RfoShared, ///< I->M acquiring a line with remote clean copies
};

/** Printable name for an access outcome. */
const char *accessOutcomeName(AccessOutcome outcome);

/** True for the two HITM outcomes. */
constexpr bool
isHitm(AccessOutcome outcome)
{
    return outcome == AccessOutcome::HitmLoad ||
           outcome == AccessOutcome::HitmStore;
}

/**
 * Directory-based MESI model, one entry per touched line.
 *
 * Invariants (checked by checkInvariants, exercised by property tests):
 *  - modified or exclusive implies exactly one sharer, equal to owner;
 *  - modified and exclusive are never both set;
 *  - sharers != 0 whenever an entry exists.
 */
class CoherenceDirectory
{
  public:
    /** Per-line directory state. */
    struct LineInfo
    {
        std::uint32_t sharers = 0; ///< bitmask of cores with a copy
        std::int8_t owner = -1;    ///< owning core when modified/exclusive
        bool modified = false;
        bool exclusive = false;
    };

    explicit CoherenceDirectory(int num_cores, std::uint32_t line_shift = 6)
        : numCores_(num_cores), lineShift_(line_shift)
    {
    }

    /** Line address (upper bits) for a byte address. */
    std::uint64_t
    lineOf(std::uint64_t addr) const
    {
        return addr >> lineShift_;
    }

    /** Cache line size in bytes. */
    std::uint64_t lineBytes() const { return 1ULL << lineShift_; }

    /**
     * Perform one access and update directory state.
     *
     * @param core           accessing core
     * @param addr           byte address
     * @param is_write       access writes the line (stores, RMW, atomics)
     * @param is_load_class  access contains a load uop (loads, RMW,
     *                       atomics); pure stores are not load-class.
     *                       Determines which HITM flavour is reported,
     *                       which in turn determines PEBS record precision
     *                       (Section 3.1).
     */
    AccessOutcome access(int core, std::uint64_t addr, bool is_write,
                         bool is_load_class);

    /** Directory entry for a line address (nullptr if never touched). */
    const LineInfo *probe(std::uint64_t line_addr) const;

    /** Validate all invariants; returns false on the first violation. */
    bool checkInvariants() const;

    /** Number of lines tracked. */
    std::size_t linesTouched() const { return lines_.size(); }

  private:
    // Not util::FlatTable like MesiDirectory: the fuzz that compares the
    // two needs them to share no table code.
    std::unordered_map<std::uint64_t, LineInfo> lines_;
    int numCores_;
    std::uint32_t lineShift_;
};

} // namespace laser::sim

#endif // LASER_SIM_COHERENCE_H
