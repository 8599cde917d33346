/**
 * @file
 * Synthetic virtual address space layout and /proc/<pid>/maps rendering.
 *
 * LASERDETECT classifies each HITM record by parsing the application's
 * virtual memory map (/proc/<pid>/maps on Linux, Section 4.1): PCs outside
 * the application and its libraries are dropped as spurious, and data
 * addresses falling in thread stacks are ignored. This module defines the
 * simulated process layout and renders a maps-format text that the
 * detector parses, exactly as the real system would.
 */

#ifndef LASER_MEM_ADDRESS_SPACE_H
#define LASER_MEM_ADDRESS_SPACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.h"

namespace laser::mem {

/** Classification of an address region. */
enum class RegionKind : std::uint8_t {
    Unmapped,
    AppCode,
    LibCode,
    Globals,
    Heap,
    Stack,
    Kernel,
};

/** Printable name of a region kind. */
const char *regionKindName(RegionKind kind);

/** One mapped region of the simulated process. */
struct Region
{
    std::uint64_t start = 0;
    std::uint64_t size = 0;
    RegionKind kind = RegionKind::Unmapped;
    /** Pathname shown in the maps file ("/app/kmeans", "[heap]", ...). */
    std::string name;
    /** Owning thread for stacks, -1 otherwise. */
    int tid = -1;

    std::uint64_t end() const { return start + size; }
    bool
    contains(std::uint64_t addr) const
    {
        return addr >= start && addr < end();
    }
};

/** Fixed layout constants of the simulated process. */
struct Layout
{
    static constexpr std::uint64_t kCodeBase = 0x0040'0000;
    static constexpr std::uint64_t kGlobalsBase = 0x0060'0000;
    static constexpr std::uint64_t kGlobalsSize = 0x0010'0000; // 1 MiB
    static constexpr std::uint64_t kHeapBase = 0x0100'0000;
    static constexpr std::uint64_t kHeapSize = 0x1000'0000;    // 256 MiB
    static constexpr std::uint64_t kStackBase = 0x7000'0000;
    static constexpr std::uint64_t kStackSize = 0x0010'0000;   // 1 MiB
    static constexpr std::uint64_t kStackStride = 0x0020'0000;
    static constexpr std::uint64_t kKernelBase = 0xffff'8000'0000'0000ULL;
};

/**
 * The address space of one simulated process: code segments from the
 * program, globals, heap and one stack per thread.
 */
class AddressSpace
{
  public:
    /**
     * Build the layout for @p prog with @p num_threads thread stacks.
     * Code segments (app text, library text) are taken from the program's
     * segment table.
     */
    AddressSpace(const isa::Program &prog, int num_threads);

    /** Classify an arbitrary address. */
    RegionKind classify(std::uint64_t addr) const;

    /** Region containing @p addr, or nullptr. */
    const Region *find(std::uint64_t addr) const;

    /** All mapped regions, ordered by start address. */
    const std::vector<Region> &regions() const { return regions_; }

    /** Virtual address of the instruction at @p index. */
    std::uint64_t
    indexToPc(std::uint32_t index) const
    {
        return Layout::kCodeBase + std::uint64_t(index) * isa::kInsnBytes;
    }

    /**
     * Instruction index for a code address; returns -1 for addresses
     * outside the text mappings or misaligned.
     */
    std::int64_t
    pcToIndex(std::uint64_t pc) const
    {
        if (pc < Layout::kCodeBase || pc >= codeEnd_)
            return -1;
        const std::uint64_t off = pc - Layout::kCodeBase;
        if (off % isa::kInsnBytes != 0)
            return -1;
        return static_cast<std::int64_t>(off / isa::kInsnBytes);
    }

    /** One past the last text address (app + libraries). */
    std::uint64_t codeEnd() const { return codeEnd_; }

    /** Initial stack pointer for thread @p tid (16-byte aligned, at top). */
    std::uint64_t stackTop(int tid) const;

    /** Stack region base for thread @p tid. */
    std::uint64_t
    stackBase(int tid) const
    {
        return Layout::kStackBase +
               std::uint64_t(tid) * Layout::kStackStride;
    }

    /**
     * Render the /proc/<pid>/maps analogue that the detector parses.
     * Format per line: "start-end perms offset dev inode  pathname".
     */
    std::string renderProcMaps() const;

    int numThreads() const { return numThreads_; }

  private:
    std::vector<Region> regions_;
    std::uint64_t codeEnd_ = Layout::kCodeBase;
    int numThreads_ = 0;
};

} // namespace laser::mem

#endif // LASER_MEM_ADDRESS_SPACE_H
