/**
 * @file
 * The simulated multicore machine: an interpreter for the IR with a
 * pluggable coherence protocol (MESI directory by default, Dragon via
 * MachineConfig::protocol), a cycle cost model, SSB-aware execution,
 * and PMU callbacks.
 *
 * Scheduling is event-driven lowest-clock-first: the defining order runs
 * one instruction at a time, always from the runnable thread with the
 * smallest (core clock, thread id) key, and advances that clock by the
 * instruction's cost. This makes timing feedback shape interleavings the
 * way real contention does (a core stalled on a HITM transfer falls
 * behind and its rival gets ahead), while staying fully deterministic.
 *
 * The machine runs that order without a decision per instruction. After
 * picking the lowest-key thread it keeps executing it while the next
 * instruction is thread-local (isa::opIsThreadLocal: no memory,
 * protocol, store buffer, PMU callback or visibility event). Such an
 * instruction commutes with every other thread's instructions, and keys
 * only grow, so a shared instruction still runs only when its key is the
 * global minimum: every coherence access, HITM, PEBS sample, sync
 * callback and TSO event keeps its order and cycle stamp.
 *
 * Run-ahead goes a block at a time. The constructor scans the program
 * once and records, per instruction index, the straight run of
 * thread-local instructions that starts there (a branch ends its run
 * and belongs to it; Halt is left to the scheduler) and the cycle cost
 * of the run's instructions before its last one. A thread-local op's
 * cost depends on its opcode alone, so that sum is exact.
 *
 * Only the maxInstructions cut could tell the difference: running ahead
 * past it would execute instructions the one-at-a-time order never
 * reaches. Every instruction costs at least timing.base >= 1 cycle, so
 * each of the other runnable threads has at most
 * (clock - pickClock + 1) instructions that order runs before the
 * run-ahead thread's next one. An instruction may run ahead only if
 * instructions + others * (clock - pickClock + 1) < maxInstructions
 * when the thread reaches it. The machine evaluates this once per
 * block, at the block's last instruction, from the counts and the
 * recorded cost. Both terms only grow along a block, so if the bound
 * holds there it held at every earlier instruction of the block. If it
 * fails, the thread steps singly with the check before each
 * instruction. A truncated run therefore executes exactly the same
 * instructions. With timing.base == 0 every instruction is scheduled
 * singly.
 *
 * Most memory accesses are private hits, so memAccess asks the
 * protocol's per-core rights filter (CoherenceProtocol::privateHit)
 * before the backend. The filter answers only when the backend would
 * return L1Hit and change no state (see sim/protocol.h), so the
 * access's statistics, cycle cost and PMU callbacks are the ones the
 * backend's answer would give. A sink whose onMemop is the no-op
 * (observesMemops() false, like the PEBS monitor) is not called per
 * access.
 */

#ifndef LASER_SIM_MACHINE_H
#define LASER_SIM_MACHINE_H

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "isa/program.h"
#include "mem/address_space.h"
#include "mem/allocator.h"
#include "mem/memory.h"
#include "sim/hitm.h"
#include "sim/protocol.h"
#include "sim/ssb.h"
#include "sim/timing.h"
#include "util/rng.h"

namespace laser::sim {

/** Machine configuration. */
struct MachineConfig
{
    /** Core (== thread) count; the paper's machine has 4 cores. */
    int numCores = 4;
    TimingModel timing{};
    /** Coherence backend (protocol sweeps; MESI reproduces the paper). */
    ProtocolKind protocol = ProtocolKind::Mesi;
    /** Simulated cache geometry (line size). */
    CacheGeometry geometry{};
    /**
     * Seed for the per-thread +-1 cycle memory-latency jitter (always
     * on). Real machines perturb per-access latency (prefetchers, DRAM
     * refresh, TLB walks); without a little jitter the deterministic
     * lockstep scheduler can resonate with the PEBS sample-after value
     * and bias sampling to one core.
     * Runs remain bit-reproducible for a fixed seed.
     */
    std::uint64_t seed = 0x1a5e2;
    /** Runaway-program guard. */
    std::uint64_t maxInstructions = 400'000'000;
    /**
     * Bytes added to the initial heap break before the first allocation;
     * models the incidental layout shift of running under LASER
     * (Section 7.4.2, lu_ncb).
     */
    std::uint64_t heapPerturbation = 0;
    /**
     * Sheriff execution model: non-atomic accesses bypass coherence
     * (each thread works on its private copy), atomics stay shared.
     */
    bool threadsAsProcesses = false;
    /** Track pages dirtied between sync points (Sheriff diff costs). */
    bool trackDirtyPages = false;
    /** Pre-emptive SSB flush threshold (the L1's 8 ways, Section 5.5). */
    int ssbMaxEntries = 8;
    SsbMode ssbMode = SsbMode::Coalescing;
    /** Record the store-visibility trace for TSO property tests. */
    bool recordTsoTrace = false;
};

/**
 * One store-visibility event: a group of stores by one thread became
 * globally visible atomically. Direct stores are singleton groups; a
 * transactional SSB flush is one group covering all buffered stores.
 */
struct TsoEvent
{
    int tid = 0;
    std::uint64_t minSeq = 0;
    std::uint64_t maxSeq = 0;
    std::uint64_t count = 0;
};

/** Aggregate statistics of one machine run. */
struct MachineStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t memMisses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t rfos = 0;
    std::uint64_t hitmLoads = 0;
    std::uint64_t hitmStores = 0;
    std::uint64_t syncOps = 0;
    std::uint64_t ssbStores = 0;
    std::uint64_t ssbLoadHits = 0;
    std::uint64_t ssbFlushes = 0;
    std::uint64_t ssbFlushedEntries = 0;
    std::uint64_t ssbMaxEntriesSeen = 0;
    std::uint64_t aliasChecks = 0;
    std::uint64_t aliasMisspecs = 0;
    /** True if the run hit the maxInstructions guard. */
    bool truncated = false;
    std::vector<std::uint64_t> threadCycles;
    std::vector<std::uint64_t> threadInstructions;

    std::uint64_t hitmTotal() const { return hitmLoads + hitmStores; }

    /** Represented seconds of this run (after time compression). */
    double seconds() const { return representedSeconds(cycles); }
};

/** The simulated machine. */
class Machine
{
  public:
    /** Throws std::invalid_argument when @p cfg's core count is not
     *  validCoreCount() or its geometry is not valid(). */
    explicit Machine(isa::Program prog, MachineConfig cfg = {});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    mem::Memory &memory() { return mem_; }
    const mem::Memory &memory() const { return mem_; }
    mem::BumpAllocator &heap() { return heap_; }
    const mem::AddressSpace &addressSpace() const { return space_; }
    const isa::Program &program() const { return prog_; }
    const MachineConfig &config() const { return cfg_; }
    /** The coherence backend (MESI directory, Dragon bus, ...). */
    const CoherenceProtocol &protocol() const { return *proto_; }

    /** Install the PMU observer (PEBS / VTune / Sheriff model). */
    void
    setPmuSink(PmuSink *sink)
    {
        sink_ = sink;
        memopSink_ = sink && sink->observesMemops() ? sink : nullptr;
    }

    /** Run all threads to completion; returns the run statistics. */
    MachineStats run();

    /** Register value of thread @p tid after run() (for tests). */
    std::int64_t reg(int tid, isa::Reg r) const;

    /** Store-visibility trace (only populated when recordTsoTrace). */
    const std::vector<TsoEvent> &tsoTrace() const { return tsoTrace_; }

  private:
    struct ThreadCtx
    {
        explicit ThreadCtx(SsbMode mode) : ssb(mode) {}

        std::array<std::int64_t, isa::kNumRegs> regs{};
        std::uint32_t pc = 0;
        std::uint64_t clock = 0;
        std::uint64_t instructions = 0;
        std::uint64_t storeSeq = 0;
        bool halted = false;
        int tid = 0;
        SoftwareStoreBuffer ssb;
        std::unordered_set<std::uint64_t> dirtyPages;
        laser::Rng rng;
    };

    void setReg(ThreadCtx &t, isa::Reg r, std::int64_t v);
    /** One coherence-visible memory access; returns its cycle cost. */
    std::uint64_t memAccess(ThreadCtx &t, std::uint64_t addr, int size,
                            bool is_write, bool is_load_class,
                            bool is_atomic);
    std::uint64_t flushSsb(ThreadCtx &t);
    /** Buffer one SSB store (flushing past ssbMaxEntries); returns its
     *  cycle cost. */
    std::uint64_t ssbStore(ThreadCtx &t, std::uint64_t addr, int size,
                           std::uint64_t value);
    std::uint64_t syncComplete(ThreadCtx &t, isa::SyncKind kind);
    void traceVisibility(ThreadCtx &t, std::uint64_t min_seq,
                         std::uint64_t max_seq, std::uint64_t count);
    void execute(ThreadCtx &t);
    /** Semantics of a thread-local op other than Halt; returns the
     *  next pc. */
    std::uint32_t stepLocal(ThreadCtx &t, const isa::Instruction &insn,
                            std::uint32_t pc);
    /** Runs @p t ahead over whole blocks after its pick (see file
     *  comment). */
    void runAhead(ThreadCtx &t, std::uint64_t pick_clock,
                  std::uint64_t others);

    /**
     * A straight run of thread-local instructions other than Halt; a
     * branch ends the run and belongs to it.
     */
    struct Block
    {
        /** Instructions in the run starting here; 0 for Halt and shared
         *  ops. */
        std::uint32_t length = 0;
        /** Cycle cost of the run's instructions before its last one. */
        std::uint64_t leadCycles = 0;
    };

    isa::Program prog_;
    MachineConfig cfg_;
    mem::Memory mem_;
    mem::AddressSpace space_;
    mem::BumpAllocator heap_;
    std::unique_ptr<CoherenceProtocol> proto_;
    std::vector<ThreadCtx> threads_;
    /** Per instruction index, plus a zero-length sentinel at the end. */
    std::vector<Block> blocks_;
    PmuSink *sink_ = nullptr;
    /** sink_ if it observes memops, else nullptr. */
    PmuSink *memopSink_ = nullptr;
    MachineStats stats_;
    std::vector<TsoEvent> tsoTrace_;
    bool ran_ = false;
};

} // namespace laser::sim

#endif // LASER_SIM_MACHINE_H
