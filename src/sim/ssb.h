/**
 * @file
 * Software store buffer (SSB) — the core of LASERREPAIR (Section 5).
 *
 * Stores modified to use the SSB write into this thread-private structure
 * instead of shared memory; loads snoop it first; an explicit flush
 * publishes all buffered bytes. Two implementations are provided:
 *
 *  - Coalescing (the paper's choice, Section 5.5): one slot per 8-byte
 *    memory chunk with a per-byte valid bitmap. Space-efficient — millions
 *    of stores collapse into a handful of entries — but individual-entry
 *    flushing could reorder stores illegally under TSO, so the flush must
 *    be strongly atomic (one hardware transaction).
 *  - Fifo (the ablation baseline): a queue with one entry per store.
 *    Trivially TSO-correct to drain in order, but impractically large
 *    between flushes; bench_ablation_ssb quantifies the difference.
 *    Fifo mode keeps the coalescing slots as well, only so that loads
 *    can snoop them; only the queue is drained, and the slots are
 *    cleared on every drain.
 *
 * Every operation works a chunk at a time. An access of at most 8 bytes
 * splits into at most two chunk pieces; a piece starting at byte a is
 * (chunk a >> 3, first lane a & 7, take = min(bytes left, 8 - lane))
 * with the lane mask ((1 << take) - 1) << lane. A store is one slot
 * lookup per piece that ORs the mask into the slot's valid bitmap and
 * copies the piece's bytes; a load tests the piece masks against the
 * bitmaps. The bitmap is what makes unaligned and partial-overlap
 * accesses correct (Section 5.1).
 *
 * The slots are a vector sorted by chunk (ssbMaxEntries keeps it at a
 * handful of entries), so a coalescing drain comes out in ascending
 * chunk order with no sort.
 */

#ifndef LASER_SIM_SSB_H
#define LASER_SIM_SSB_H

#include <cstdint>
#include <utility>
#include <vector>

namespace laser::sim {

/** SSB implementation strategy. */
enum class SsbMode : std::uint8_t {
    Coalescing, ///< one slot per 8-byte chunk (paper design)
    Fifo,       ///< one entry per store (ablation baseline)
};

/** One drained store-buffer entry, ready to apply to memory. */
struct SsbDrainEntry
{
    std::uint64_t addr = 0;    ///< base byte address of the chunk
    std::uint8_t validMask = 0;///< bit i set => byte addr+i is valid
    std::uint8_t bytes[8] = {};
    std::uint64_t minSeq = 0;  ///< lowest store sequence merged in
    std::uint64_t maxSeq = 0;  ///< highest store sequence merged in
};

/**
 * Thread-private software store buffer. Every access is 1 to 8 bytes
 * (an instruction's operand size), so it touches at most two chunks.
 */
class SoftwareStoreBuffer
{
  public:
    explicit SoftwareStoreBuffer(SsbMode mode = SsbMode::Coalescing)
        : mode_(mode)
    {
    }

    /**
     * Buffer a store of the low @p size bytes of @p value at @p addr:
     * one slot lookup (or insert) per chunk piece. A slot's
     * minSeq/maxSeq span the @p seq of every store merged into it.
     */
    void put(std::uint64_t addr, int size, std::uint64_t value,
             std::uint64_t seq);

    /**
     * True if every byte of [addr, addr+size) is buffered (each piece's
     * lanes are all valid); if so, @p value receives the buffered data.
     * @p value is left untouched otherwise.
     */
    bool getFull(std::uint64_t addr, int size, std::uint64_t *value) const;

    /** True if any byte of [addr, addr+size) is buffered. */
    bool containsAny(std::uint64_t addr, int size) const;

    /**
     * Overlay the valid buffered bytes of [addr, addr+size) onto
     * @p mem_value (the value read from memory), returning the
     * TSO-correct merged load result (@p mem_value itself when no byte
     * is buffered).
     */
    std::uint64_t merge(std::uint64_t addr, int size,
                        std::uint64_t mem_value) const;

    /**
     * Remove and return all entries: one per slot in ascending chunk
     * order (coalescing), or one per chunk piece of each store in store
     * order (fifo).
     */
    std::vector<SsbDrainEntry> drain();

    /** Number of occupied slots (coalescing) or queued stores (fifo). */
    std::size_t
    entryCount() const
    {
        return mode_ == SsbMode::Fifo ? fifo_.size() : slots_.size();
    }

    bool empty() const { return entryCount() == 0; }

    SsbMode mode() const { return mode_; }

    /** Total stores buffered since construction (for stats/ablation). */
    std::uint64_t totalPuts() const { return totalPuts_; }

  private:
    /** One 8-byte chunk's buffered bytes. */
    struct Slot
    {
        std::uint8_t validMask = 0; ///< bit i set => bytes[i] is buffered
        std::uint8_t bytes[8] = {};
        std::uint64_t minSeq = 0;
        std::uint64_t maxSeq = 0;
    };

    /** The slot of @p chunk (addr >> 3), or null if none. */
    const Slot *findSlot(std::uint64_t chunk) const;
    /** The slot of @p chunk, inserted empty in chunk order if absent. */
    Slot &slotAt(std::uint64_t chunk);

    SsbMode mode_;
    /** (chunk, slot) pairs sorted by chunk; in fifo mode, for snooping. */
    std::vector<std::pair<std::uint64_t, Slot>> slots_;

    struct FifoEntry
    {
        std::uint64_t addr;
        std::uint8_t size;
        std::uint64_t value;
        std::uint64_t seq;
    };
    std::vector<FifoEntry> fifo_;

    std::uint64_t totalPuts_ = 0;
};

} // namespace laser::sim

#endif // LASER_SIM_SSB_H
