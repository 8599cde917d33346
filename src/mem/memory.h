/**
 * @file
 * Sparse byte-addressable backing store for the simulated machine.
 *
 * Pages are allocated lazily on first touch; reads of untouched memory
 * return zero (like fresh anonymous mappings). Values are little-endian,
 * matching the x86 systems the paper targets.
 */

#ifndef LASER_MEM_MEMORY_H
#define LASER_MEM_MEMORY_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/flat_table.h"

namespace laser::mem {

/** Sparse simulated physical memory. */
class Memory
{
  public:
    static constexpr std::uint64_t kPageBytes = 4096;

    /** Read @p size bytes (1/2/4/8) at @p addr, little-endian. */
    std::uint64_t read(std::uint64_t addr, int size) const;

    /** Write the low @p size bytes of @p value at @p addr. */
    void write(std::uint64_t addr, int size, std::uint64_t value);

    /** Read a single byte. */
    std::uint8_t readByte(std::uint64_t addr) const;

    /** Write a single byte. */
    void writeByte(std::uint64_t addr, std::uint8_t value);

    /** Write the @p size bytes at @p data to @p addr onwards. */
    void writeBytes(std::uint64_t addr, const std::uint8_t *data,
                    std::size_t size);

    /**
     * Call @p fn(base, bytes) for every touched page: its first address
     * and its kPageBytes bytes. Pages come in table order, not address
     * order.
     */
    template <class Fn>
    void
    forEachPage(Fn &&fn) const
    {
        pages_.forEach(
            [&](std::uint64_t page, const std::unique_ptr<Page> &bytes) {
                fn(page * kPageBytes,
                   static_cast<const std::uint8_t *>(bytes->data()));
            });
    }

    /** Number of distinct pages touched so far. */
    std::size_t pagesTouched() const { return pages_.size(); }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    Page *pageFor(std::uint64_t addr);
    const Page *pageForConst(std::uint64_t addr) const;

    /** Keyed by page number. */
    FlatTable<std::unique_ptr<Page>> pages_;
};

} // namespace laser::mem

#endif // LASER_MEM_MEMORY_H
