/**
 * @file
 * Shared infrastructure for workload builders: an allocation-aware build
 * context and emitters for the synchronization idioms the suites use
 * (inline SPLASH-style macro locks, barriers, thread partitioning).
 */

#ifndef LASER_WORKLOADS_COMMON_H
#define LASER_WORKLOADS_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.h"
#include "mem/address_space.h"
#include "mem/allocator.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace laser::workloads {

/**
 * Build context for one workload instance.
 *
 * The heap allocator mirrors the machine's exactly (same base, same
 * perturbation), so addresses embedded in the generated code match the
 * layout the allocator would have produced at run time — this is what
 * lets the LASER-attach layout shift change a workload's false-sharing
 * behaviour (lu_ncb, Section 7.4.2).
 */
class Ctx
{
  public:
    Ctx(const std::string &program_name, const std::string &main_file,
        const BuildOptions &opt, Image image)
        : a(program_name, main_file),
          heap(mem::Layout::kHeapBase, mem::Layout::kHeapSize),
          globals(mem::Layout::kGlobalsBase, mem::Layout::kGlobalsSize),
          rng(opt.inputSeed),
          opt(opt),
          image_(image)
    {
        heap.perturb(opt.heapPerturbation);
    }

    /** Scale an iteration count by the input-size factor. */
    std::int64_t
    scaled(std::int64_t n) const
    {
        const auto v = static_cast<std::int64_t>(double(n) * opt.scale);
        return v > 1 ? v : 1;
    }

    /**
     * False when the build skips the image: init64/init8 then record
     * nothing, and a builder may skip input synthesis whose values
     * (and rng draws) feed only the image.
     */
    bool synthesizesImage() const { return image_ == Image::Synthesize; }

    /** Record an initial 64-bit memory value. */
    void
    init64(std::uint64_t addr, std::uint64_t value)
    {
        initBytes(addr, value, 8);
    }

    /** Record an initial byte. */
    void
    init8(std::uint64_t addr, std::uint8_t value)
    {
        initBytes(addr, value, 1);
    }

    /**
     * Allocate and initialize a barrier object in globals (cache-line
     * aligned so the barrier itself does not falsely share).
     */
    std::uint64_t
    allocBarrier()
    {
        const std::uint64_t addr = globals.allocAligned(24, 64);
        init64(addr + 16, static_cast<std::uint64_t>(opt.numThreads));
        return addr;
    }

    /** Finalize into a WorkloadBuild. */
    WorkloadBuild
    finish()
    {
        WorkloadBuild out;
        out.program = a.finalize();
        out.bytes = std::move(bytes_);
        out.runs = std::move(runs_);
        return out;
    }

    isa::Asm a;
    mem::BumpAllocator heap;
    mem::BumpAllocator globals;
    laser::Rng rng;
    BuildOptions opt;

  private:
    /**
     * Append the low @p size bytes of @p value, little-endian, at
     * @p addr: extends the last run when @p addr directly follows it.
     */
    void
    initBytes(std::uint64_t addr, std::uint64_t value, int size)
    {
        if (!synthesizesImage())
            return;
        if (runs_.empty() ||
                runs_.back().addr + runs_.back().size != addr)
            runs_.push_back({addr, bytes_.size(), 0});
        for (int i = 0; i < size; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
        runs_.back().size += static_cast<std::uint64_t>(size);
    }

    Image image_;
    std::vector<std::uint8_t> bytes_;
    std::vector<WorkloadBuild::Run> runs_;
};

// -----------------------------------------------------------------------
// Emitters. All leave the runtime-library registers (r10-r14) free unless
// stated otherwise; callers pass the registers to use.
// -----------------------------------------------------------------------

/** Emit "r12 = barrier; call barrier_wait" (clobbers r10-r14). */
void emitBarrier(Ctx &ctx, std::uint64_t barrier_addr);

/**
 * Emit an inline test-and-test-and-set lock acquire on [addr_reg]
 * (SPLASH-style macro-expanded lock; clobbers @p scratch). All emitted
 * instructions carry the current source-line cursor.
 */
void emitInlineTtsAcquire(isa::Asm &a, isa::Reg addr_reg,
                          isa::Reg scratch);

/** Emit an inline naive CAS spin-lock acquire (clobbers @p scratch). */
void emitInlineSpinAcquire(isa::Asm &a, isa::Reg addr_reg,
                           isa::Reg scratch);

/** Emit an inline lock release (store 0). */
void emitInlineRelease(isa::Asm &a, isa::Reg addr_reg);

/**
 * Emit "dst = base + tid * stride" using @p scratch; tid must already be
 * in @p tid_reg.
 */
void emitThreadAddr(isa::Asm &a, isa::Reg dst, isa::Reg tid_reg,
                    std::uint64_t base, std::int64_t stride,
                    isa::Reg scratch);

/**
 * Emit a private compute loop: @p iters iterations of (@p loads loads
 * from [data_reg], @p arith register ops, @p stores stores back),
 * walking data_reg by @p stride bytes per iteration. Touches only
 * memory private to the thread; used as the "realistic surrounding
 * work" of every kernel. Clobbers r6-r9 and @p counter_reg.
 */
void emitPrivateWork(isa::Asm &a, isa::Reg data_reg, isa::Reg counter_reg,
                     std::int64_t iters, int loads, int arith, int stores,
                     std::int64_t stride);

} // namespace laser::workloads

#endif // LASER_WORKLOADS_COMMON_H
