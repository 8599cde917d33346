/**
 * @file
 * The LASERDETECT cache-line model (Figure 5): the per-access decision.
 *
 * Each tracked line remembers the type (read/write) and byte footprint
 * (bitmap) of its previous access. When a new access arrives, true
 * sharing is flagged if it overlaps the previous access and at least one
 * of the two is a write; false sharing if they touch disjoint bytes of
 * the same line (again with a write involved); read-read pairs are not
 * contention. The per-line state lives in DetectorState::lines, a hash
 * table, so only the small number of contended lines consume space
 * (Section 4.3); this header holds the stateless halves the pipeline
 * and shard merging share: the footprint and the classification.
 *
 * The line size is a parameter and must agree with the simulated
 * machine's CacheGeometry::lineBytes — detector classification and
 * coherence line indexing disagreeing would silently mistype every
 * event (the construction sites assert the two match). Degenerate
 * accesses (size <= 0, e.g. a prefetch or a corrupted record) have an
 * empty byte footprint and classify as SharingOutcome::None — an empty
 * footprint can neither truly nor falsely share.
 */

#ifndef LASER_DETECT_CACHELINE_MODEL_H
#define LASER_DETECT_CACHELINE_MODEL_H

#include <cstdint>

namespace laser::detect {

/** Classification of one modeled access against the line's previous one. */
enum class SharingOutcome : std::uint8_t {
    None,         ///< first access, read-read, or empty footprint
    TrueSharing,  ///< overlapping bytes, at least one write
    FalseSharing, ///< disjoint bytes of the same line, at least one write
};

/** Figure 5's per-access footprint and decision. */
class CacheLineModel
{
  public:
    CacheLineModel() = delete;

    /** Default line size; matches CacheGeometry's default. */
    static constexpr int kDefaultLineBytes = 64;

    /**
     * @p line_bytes when it is a power of two in [8, 128] (the simulated
     * geometry's range), else kDefaultLineBytes. Lines wider than 64
     * bytes are tracked at 2-byte granularity so the footprint still
     * fits a 64-bit mask.
     */
    static int lineBytesOrDefault(int line_bytes);

    /**
     * Byte footprint of a @p size-byte access at @p addr within its
     * line; accesses that would cross the line boundary are clipped.
     * Degenerate sizes (<= 0) and invalid line sizes yield the empty
     * mask.
     */
    static std::uint64_t byteMask(std::uint64_t addr, int size,
                                  int line_bytes = kDefaultLineBytes);

    /**
     * The Figure 5 decision of an access with footprint @p mask against
     * the line's previous access (@p prev_mask is empty when there is
     * none). Shard merging also uses it to reclassify a shard's first
     * access to a line against the previous shard's last access:
     * contention needs a write on either side and a non-empty footprint
     * on both; then overlapping bytes mean true sharing, disjoint bytes
     * false sharing.
     */
    static SharingOutcome classify(std::uint64_t prev_mask,
                                   bool prev_write, std::uint64_t mask,
                                   bool is_write);
};

} // namespace laser::detect

#endif // LASER_DETECT_CACHELINE_MODEL_H
