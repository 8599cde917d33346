/**
 * @file
 * Unit tests for the mem module: sparse memory, address-space layout,
 * /proc maps rendering, and the malloc-header allocator whose layout
 * decisions drive the paper's "invisible" false sharing.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "mem/address_space.h"
#include "mem/allocator.h"
#include "mem/memory.h"

namespace laser::mem {
namespace {

isa::Program
tinyProgram(bool with_lib)
{
    isa::Asm a("tiny");
    if (with_lib) {
        a.movi(isa::R12, 0x1000);
        a.callLib(isa::LibFn::Unlock);
    }
    a.halt();
    return a.finalize();
}

TEST(Memory, ReadsZeroWhenUntouched)
{
    Memory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.pagesTouched(), 0u);
}

TEST(Memory, LittleEndianRoundTrip)
{
    Memory m;
    m.write(0x1000, 8, 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1007, 1), 0x11u);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
}

TEST(Memory, PartialWritePreservesNeighbours)
{
    Memory m;
    m.write(0x2000, 8, 0xffffffffffffffffULL);
    m.write(0x2002, 2, 0xabcd);
    EXPECT_EQ(m.read(0x2000, 8), 0xffffffffabcdffffULL);
}

TEST(Memory, CrossPageAccess)
{
    Memory m;
    const std::uint64_t addr = Memory::kPageBytes - 3;
    m.write(addr, 8, 0x0123456789abcdefULL);
    EXPECT_EQ(m.read(addr, 8), 0x0123456789abcdefULL);
    EXPECT_EQ(m.pagesTouched(), 2u);
}

TEST(AddressSpace, ClassifiesAllRegionKinds)
{
    AddressSpace space(tinyProgram(true), 4);

    EXPECT_EQ(space.classify(Layout::kCodeBase), RegionKind::AppCode);
    EXPECT_EQ(space.classify(Layout::kGlobalsBase + 8),
              RegionKind::Globals);
    EXPECT_EQ(space.classify(Layout::kHeapBase + 100), RegionKind::Heap);
    EXPECT_EQ(space.classify(space.stackBase(2) + 64), RegionKind::Stack);
    EXPECT_EQ(space.classify(Layout::kKernelBase + 0x1000),
              RegionKind::Kernel);
    EXPECT_EQ(space.classify(0x10), RegionKind::Unmapped);
    EXPECT_EQ(space.classify(0x5000'0000), RegionKind::Unmapped);
}

TEST(AddressSpace, LibrarySegmentIsLibCode)
{
    isa::Program p = tinyProgram(true);
    AddressSpace space(p, 2);
    const std::uint64_t lib_pc = space.indexToPc(p.segments[1].begin);
    EXPECT_EQ(space.classify(lib_pc), RegionKind::LibCode);
    EXPECT_EQ(space.classify(space.indexToPc(0)), RegionKind::AppCode);
}

TEST(AddressSpace, PcIndexRoundTrip)
{
    isa::Program p = tinyProgram(true);
    AddressSpace space(p, 2);
    for (std::uint32_t i = 0; i < p.size(); ++i) {
        const std::uint64_t pc = space.indexToPc(i);
        EXPECT_EQ(space.pcToIndex(pc), static_cast<std::int64_t>(i));
    }
    EXPECT_EQ(space.pcToIndex(Layout::kCodeBase - 4), -1);
    EXPECT_EQ(space.pcToIndex(space.codeEnd()), -1);
    EXPECT_EQ(space.pcToIndex(Layout::kCodeBase + 1), -1); // misaligned
}

TEST(AddressSpace, StackRegionsPerThread)
{
    AddressSpace space(tinyProgram(false), 3);
    for (int t = 0; t < 3; ++t) {
        const Region *r = space.find(space.stackTop(t));
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->kind, RegionKind::Stack);
        EXPECT_EQ(r->tid, t);
    }
    // Guard gap between stacks is unmapped.
    EXPECT_EQ(space.classify(space.stackBase(0) + Layout::kStackSize + 8),
              RegionKind::Unmapped);
}

TEST(AddressSpace, ProcMapsHasExpectedEntries)
{
    AddressSpace space(tinyProgram(true), 2);
    const std::string maps = space.renderProcMaps();
    EXPECT_NE(maps.find("/app/tiny"), std::string::npos);
    EXPECT_NE(maps.find("/usr/lib/libpthread.so"), std::string::npos);
    EXPECT_NE(maps.find("[heap]"), std::string::npos);
    EXPECT_NE(maps.find("[stack:1000]"), std::string::npos);
    EXPECT_NE(maps.find("[stack:1001]"), std::string::npos);
    EXPECT_NE(maps.find("r-xp"), std::string::npos);
    EXPECT_NE(maps.find("rw-p"), std::string::npos);
}

TEST(Allocator, MallocReturnsSixteenAlignedWithHeader)
{
    BumpAllocator heap(0x1000000, 0x100000);
    const std::uint64_t a = heap.alloc(64);
    // First chunk: base + 16-byte header.
    EXPECT_EQ(a, 0x1000000u + BumpAllocator::kHeaderBytes);
    EXPECT_EQ(a % BumpAllocator::kMinAlign, 0u);
    const std::uint64_t b = heap.alloc(64);
    EXPECT_GE(b, a + 64 + BumpAllocator::kHeaderBytes);
}

TEST(Allocator, SixtyFourByteStructArrayStraddlesLines)
{
    // The linear_regression layout (Figure 2): a 64-byte-per-element
    // array allocated with plain malloc starts at offset 16 (mod 64), so
    // every element spans two cache lines and adjacent threads share one.
    BumpAllocator heap(0x1000000, 0x100000);
    const std::uint64_t args = heap.alloc(4 * 64);
    EXPECT_EQ(args % 64, 16u);
    const std::uint64_t elem0_line_end = (args / 64 + 1) * 64;
    EXPECT_LT(elem0_line_end, args + 64); // element 0 crosses a line
}

TEST(Allocator, AlignedAllocationFixesStraddling)
{
    BumpAllocator heap(0x1000000, 0x100000);
    const std::uint64_t args = heap.allocAligned(4 * 64, 64);
    EXPECT_EQ(args % 64, 0u);
}

TEST(Allocator, PerturbationShiftsLayout)
{
    // The LASER-attach layout shift (Section 7.4.2): +48 bytes moves a
    // plain malloc from offset 16 to offset 0 (mod 64).
    BumpAllocator native(0x1000000, 0x100000);
    BumpAllocator under_laser(0x1000000, 0x100000);
    under_laser.perturb(48);
    EXPECT_EQ(native.alloc(512) % 64, 16u);
    EXPECT_EQ(under_laser.alloc(512) % 64, 0u);
}

TEST(Allocator, ReturnsZeroWhenExhausted)
{
    BumpAllocator heap(0x1000, 128);
    EXPECT_NE(heap.alloc(32), 0u);
    EXPECT_EQ(heap.alloc(4096), 0u);
}

} // namespace
} // namespace laser::mem
