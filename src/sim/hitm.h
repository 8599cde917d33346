/**
 * @file
 * HITM event payload and the PMU sink interface the machine raises events
 * through.
 *
 * The machine is policy-free: it reports every HITM coherence event (plus
 * per-memory-op and per-sync-op callbacks used by the baseline models) to
 * a PmuSink and charges whatever cost the sink returns to the triggering
 * core. The LASER PEBS model, the VTune model and the Sheriff model are
 * all implemented as sinks.
 */

#ifndef LASER_SIM_HITM_H
#define LASER_SIM_HITM_H

#include <cstdint>

#include "isa/types.h"

namespace laser::sim {

/** Ground-truth description of one HITM coherence event. */
struct HitmEvent
{
    int core = 0;
    /** Instruction index of the access (the true PC). */
    std::uint32_t pcIndex = 0;
    /** True data (byte) address of the access. */
    std::uint64_t vaddr = 0;
    /** Access size in bytes. */
    std::uint8_t accessSize = 0;
    /**
     * True when the access contains a load uop (loads, RMW, atomics).
     * Haswell's PEBS HITM event is a load event; records for pure stores
     * exist but are imprecise (Section 3.1).
     */
    bool isLoadUop = false;
    /** True when the access writes the line. */
    bool isStore = false;
    /** Core-local cycle count at the event. */
    std::uint64_t cycle = 0;
};

/**
 * Observer interface for performance-monitoring models.
 *
 * Each callback returns extra cycles to charge to the triggering core
 * (e.g. a PEBS microcode assist, a profiling interrupt, or a Sheriff page
 * diff at a synchronization point).
 */
class PmuSink
{
  public:
    virtual ~PmuSink() = default;

    /** A HITM coherence event occurred. */
    virtual std::uint64_t
    onHitm(const HitmEvent &event)
    {
        (void)event;
        return 0;
    }

    /**
     * False when onMemop() is the no-op below, so the machine may skip
     * the call on every access. A sink that overrides onMemop() keeps
     * the default.
     */
    virtual bool observesMemops() const { return true; }

    /** A (non-SSB) memory operation executed. */
    virtual std::uint64_t
    onMemop(int core, std::uint32_t pc_index, bool is_write,
            std::uint64_t cycle)
    {
        (void)core; (void)pc_index; (void)is_write; (void)cycle;
        return 0;
    }

    /**
     * A synchronization operation completed (successful lock acquire,
     * lock release, or barrier arrival). @p dirty_pages is the number of
     * pages the thread dirtied since its previous sync point (only
     * tracked when MachineConfig::trackDirtyPages is set); @p cycle is
     * the core-local clock, so sinks can emit capturable, time-ordered
     * sync streams.
     */
    virtual std::uint64_t
    onSync(int core, isa::SyncKind kind, std::uint64_t dirty_pages,
           std::uint64_t cycle)
    {
        (void)core; (void)kind; (void)dirty_pages; (void)cycle;
        return 0;
    }
};

} // namespace laser::sim

#endif // LASER_SIM_HITM_H
