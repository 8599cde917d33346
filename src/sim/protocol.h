/**
 * @file
 * Protocol-pluggable coherence: the CoherenceProtocol interface and the
 * cache-geometry parameters shared by every backend.
 *
 * LASER's whole detection signal is the HITM event, so the robustness
 * question "does accuracy hold under a different coherence fabric?"
 * requires the fabric to be swappable. A CoherenceProtocol classifies
 * every memory access into an AccessOutcome (sim/coherence.h); the
 * machine charges latency from the outcome and raises HITM events for
 * the two HITM outcomes. Two backends are provided:
 *
 *  - MesiDirectory (sim/protocol_mesi.h): the invalidation-based
 *    directory-MESI model, transition-identical to the original
 *    CoherenceDirectory.
 *  - DragonBus (sim/protocol_dragon.h): a snooping update-based Dragon
 *    protocol (E/Sc/Sm/M) in which HITM outcomes fall out of real
 *    M/Sm-state dirty interventions instead of invalidations.
 *
 * CacheGeometry makes line size a first-class simulated parameter; it
 * participates in the LSRT hashed config section so trace-cache keys
 * can never collide across protocols or line sizes.
 *
 * Private hits skip the backend. Most accesses hit a line the core
 * already holds with enough rights, and the backend answers them with
 * L1Hit and no state change. CoherenceProtocol keeps, per core, a
 * direct-mapped filter of (line, writable) entries that records such
 * rights, and the machine asks privateHit() before access(). The
 * invariant: an entry readable for a line means access(core, read)
 * would return L1Hit and change nothing; writable means the same for a
 * write. Only access() updates the filter: after its state change the
 * accessor's entry gets its exact rights, and every other core whose
 * rights shrank loses them. MESI grants a read while the core is a
 * sharer and a write only on an M line it owns (an E line's first write
 * is the silent E->M change, which must reach the directory). Dragon
 * grants a read while the core is a sharer and a write only when it is
 * the owner and sole sharer. Caches have no capacity model, so no other
 * event ends a right; a slot collision overwrites the older entry,
 * which then costs one backend call.
 */

#ifndef LASER_SIM_PROTOCOL_H
#define LASER_SIM_PROTOCOL_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/coherence.h"

namespace laser::sim {

/** Selectable coherence backend. */
enum class ProtocolKind : std::uint8_t {
    Mesi = 0,   ///< invalidation-based directory MESI (the default)
    Dragon = 1, ///< snooping update-based Dragon (E/Sc/Sm/M)
};

/** Printable name ("mesi", "dragon"). */
const char *protocolName(ProtocolKind kind);

/** Parse a protocol name; returns false (and leaves @p out alone) on an
 *  unknown name. */
bool parseProtocol(const std::string &name, ProtocolKind *out);

/**
 * Simulated cache geometry. The default (64-byte lines) reproduces the
 * original hard-coded model bit-for-bit. Caches have unbounded
 * capacity: contention, not capacity misses, drives the paper's signal.
 */
struct CacheGeometry
{
    /** Cache line size in bytes; a power of two in [8, 128]. The upper
     *  bound keeps a line's byte count within HitmEvent::accessSize. */
    std::uint32_t lineBytes = 64;

    /** True for a representable line size (power of two in [8, 128]). */
    bool
    valid() const
    {
        return lineBytes >= 8 && lineBytes <= 128 &&
               (lineBytes & (lineBytes - 1)) == 0;
    }
};

/** Most cores (== threads) a machine can have: sharer sets are 32-bit
 *  masks with one bit per core. */
constexpr int kMaxCores = 32;

/** True for a representable core count, [1, kMaxCores]. */
constexpr bool
validCoreCount(int cores)
{
    return cores >= 1 && cores <= kMaxCores;
}

/**
 * One coherence backend: classifies accesses, tracks per-line sharing
 * state, and self-checks its protocol invariants (fuzzed by the
 * property tests over random interleavings).
 */
class CoherenceProtocol
{
  public:
    CoherenceProtocol(int num_cores, const CacheGeometry &geometry);
    virtual ~CoherenceProtocol() = default;

    CoherenceProtocol(const CoherenceProtocol &) = delete;
    CoherenceProtocol &operator=(const CoherenceProtocol &) = delete;

    /** Which backend this is. */
    virtual ProtocolKind kind() const = 0;

    /**
     * Perform one access and update protocol state. Parameter meaning
     * matches CoherenceDirectory::access: @p is_load_class selects the
     * HITM flavour (and thus PEBS record precision, Section 3.1).
     */
    virtual AccessOutcome access(int core, std::uint64_t addr,
                                 bool is_write, bool is_load_class) = 0;

    /** Filter slots per core; a power of two. */
    static constexpr std::size_t kFilterSlots = 1024;
    /**
     * The bits of an empty filter slot. A line address is below 2^61
     * (lines are at least 8 bytes), so no entry's bits equal this, and
     * an empty slot's line() matches no line.
     */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

    /**
     * One filter slot: what line()'s holder may do without access(),
     * packed into eight bytes as line << 1 | writable.
     */
    struct FilterEntry
    {
        std::uint64_t bits = kNoLine;

        bool empty() const { return bits == kNoLine; }
        std::uint64_t line() const { return bits >> 1; }
        bool writable() const { return (bits & 1) != 0; }
    };
    static_assert(sizeof(FilterEntry) == 8);

    /**
     * True when access(@p core, an address in @p line, @p is_write, ...)
     * would return L1Hit and change no state, so the caller may skip
     * it. False says nothing: call access().
     */
    bool
    privateHit(int core, std::uint64_t line, bool is_write) const
    {
        // A read ignores the writable bit. An empty slot's bits are all
        // ones, which no entry (line << 1 | 1, line < 2^61) equals.
        const std::uint64_t bits = filter_[slot(core, line)].bits;
        return (bits | static_cast<std::uint64_t>(!is_write)) ==
               (line << 1 | 1);
    }

    /** The slot of @p core's filter that @p line maps to (for tests). */
    const FilterEntry &
    filterEntry(int core, std::uint64_t line) const
    {
        return filter_[slot(core, line)];
    }

    /** Validate all protocol invariants; false on the first violation. */
    virtual bool checkInvariants() const = 0;

    /** Number of lines tracked. */
    virtual std::size_t linesTouched() const = 0;

    /** Line address (upper bits) for a byte address. */
    std::uint64_t lineOf(std::uint64_t addr) const
    {
        return addr >> lineShift_;
    }

    /** Cache line size in bytes. */
    std::uint64_t lineBytes() const { return geometry_.lineBytes; }

    int numCores() const { return numCores_; }
    const CacheGeometry &geometry() const { return geometry_; }

  protected:
    /** After access() changed @p line: @p core may now read it, and
     *  write it too when @p writable. */
    void
    grant(int core, std::uint64_t line, bool writable)
    {
        filter_[slot(core, line)].bits =
            line << 1 | static_cast<std::uint64_t>(writable);
    }

    /** @p core no longer holds @p line. */
    void
    revoke(int core, std::uint64_t line)
    {
        FilterEntry &e = filter_[slot(core, line)];
        if (e.line() == line)
            e = {};
    }

    /** @p core may still read @p line but no longer write it silently. */
    void
    demote(int core, std::uint64_t line)
    {
        FilterEntry &e = filter_[slot(core, line)];
        if (e.line() == line)
            e.bits &= ~std::uint64_t{1};
    }

    int numCores_;
    CacheGeometry geometry_;
    std::uint32_t lineShift_;

  private:
    static std::size_t
    slot(int core, std::uint64_t line)
    {
        return static_cast<std::size_t>(core) * kFilterSlots +
               static_cast<std::size_t>(line & (kFilterSlots - 1));
    }

    /** kFilterSlots entries per core, core-major. */
    std::vector<FilterEntry> filter_;
};

/** Construct the backend for @p kind. Invalid geometry falls back to
 *  the default (the machine validates up front; this is a backstop). */
std::unique_ptr<CoherenceProtocol>
makeProtocol(ProtocolKind kind, int num_cores,
             const CacheGeometry &geometry = {});

} // namespace laser::sim

#endif // LASER_SIM_PROTOCOL_H
