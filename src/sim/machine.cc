#include "sim/machine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace laser::sim {

using isa::Instruction;
using isa::Op;
using isa::SyncKind;

namespace {

/** Ops a run-ahead block may contain: thread-local, except Halt. */
constexpr bool
inBlock(Op op)
{
    return op != Op::Halt && isa::opIsThreadLocal(op);
}

/** Cycle cost of a block op; it depends on the opcode alone. */
std::uint64_t
localCost(Op op, const TimingModel &tm)
{
    std::uint64_t cost = tm.base;
    if (op == Op::Mul || op == Op::MulImm)
        cost += 2; // multiply latency
    else if (op == Op::Pause)
        cost += tm.pauseCost;
    return cost;
}

/**
 * @p cfg, or std::invalid_argument when the machine cannot model it.
 * Runs before any member is built from it (one stack region per core).
 */
const MachineConfig &
checkedConfig(const MachineConfig &cfg)
{
    if (!validCoreCount(cfg.numCores))
        throw std::invalid_argument(
            "invalid core count " + std::to_string(cfg.numCores) +
            " (must be in [1, " + std::to_string(kMaxCores) + "])");
    if (!cfg.geometry.valid())
        throw std::invalid_argument(
            "invalid cache line size " +
            std::to_string(cfg.geometry.lineBytes) +
            " (must be a power of two in [8, 128])");
    return cfg;
}

} // namespace

Machine::Machine(isa::Program prog, MachineConfig cfg)
    : prog_(std::move(prog)),
      cfg_(checkedConfig(cfg)),
      space_(prog_, cfg.numCores),
      heap_(mem::Layout::kHeapBase, mem::Layout::kHeapSize),
      proto_(makeProtocol(cfg.protocol, cfg.numCores, cfg.geometry))
{
    heap_.perturb(cfg.heapPerturbation);
    threads_.reserve(cfg.numCores);
    for (int t = 0; t < cfg.numCores; ++t) {
        threads_.emplace_back(cfg.ssbMode);
        threads_.back().tid = t;
        threads_.back().regs[isa::R15] =
            static_cast<std::int64_t>(space_.stackTop(t));
        threads_.back().rng.reseed(cfg.seed ^
                                   (0x9e3779b97f4a7c15ULL * (t + 1)));
    }
    stats_.threadCycles.resize(cfg.numCores, 0);
    stats_.threadInstructions.resize(cfg.numCores, 0);

    // One backward scan: a block extends the block of the next
    // instruction unless it is a branch, which ends its block.
    blocks_.resize(prog_.code.size() + 1);
    for (std::size_t pc = prog_.code.size(); pc-- > 0;) {
        const Op op = prog_.code[pc].op;
        if (!inBlock(op))
            continue;
        const Block &next = blocks_[pc + 1];
        if (isa::opIsBranch(op) || next.length == 0) {
            blocks_[pc] = {1, 0};
        } else {
            blocks_[pc] = {next.length + 1,
                           localCost(op, cfg.timing) + next.leadCycles};
        }
    }
}

void
Machine::setReg(ThreadCtx &t, isa::Reg r, std::int64_t v)
{
    // r0 is hardwired to zero by convention.
    if (r != isa::R0)
        t.regs[r] = v;
}

std::int64_t
Machine::reg(int tid, isa::Reg r) const
{
    return threads_.at(tid).regs[r];
}

std::uint64_t
Machine::memAccess(ThreadCtx &t, std::uint64_t addr, int size,
                   bool is_write, bool is_load_class, bool is_atomic)
{
    const TimingModel &tm = cfg_.timing;
    std::uint64_t cost = t.rng() & 1;

    if (is_load_class)
        ++stats_.loads;
    if (is_write)
        ++stats_.stores;
    if (cfg_.trackDirtyPages && is_write)
        t.dirtyPages.insert(addr >> 12);

    if (cfg_.threadsAsProcesses && !is_atomic) {
        // Sheriff execution model: the access hits the thread's private
        // copy; no coherence traffic, no HITM possible.
        cost += tm.l1Hit;
        if (memopSink_)
            cost += memopSink_->onMemop(t.tid, t.pc, is_write, t.clock);
        return cost;
    }

    // A private hit: the backend would answer L1Hit and change nothing
    // (see sim/protocol.h), so it is not asked.
    if (proto_->privateHit(t.tid, proto_->lineOf(addr), is_write)) {
        ++stats_.l1Hits;
        cost += tm.l1Hit;
        if (memopSink_)
            cost += memopSink_->onMemop(t.tid, t.pc, is_write, t.clock);
        return cost;
    }

    // Per-protocol cycle costs: Dragon's dirty intervention and bus
    // update replace MESI's HITM transfer and S->M upgrade.
    const bool dragon = cfg_.protocol == ProtocolKind::Dragon;
    const std::uint32_t hitm_cost = dragon ? tm.dragonHitm : tm.hitm;
    const std::uint32_t upgrade_cost =
        dragon ? tm.dragonUpdate : tm.upgrade;

    const AccessOutcome outcome =
        proto_->access(t.tid, addr, is_write, is_load_class);
    switch (outcome) {
      case AccessOutcome::L1Hit:
        ++stats_.l1Hits;
        cost += tm.l1Hit;
        break;
      case AccessOutcome::LlcHit:
        ++stats_.llcHits;
        cost += tm.llcHit;
        break;
      case AccessOutcome::MemMiss:
        ++stats_.memMisses;
        cost += tm.memMiss;
        break;
      case AccessOutcome::HitmLoad:
        ++stats_.hitmLoads;
        cost += hitm_cost;
        break;
      case AccessOutcome::HitmStore:
        ++stats_.hitmStores;
        cost += hitm_cost;
        break;
      case AccessOutcome::Upgrade:
        ++stats_.upgrades;
        cost += upgrade_cost;
        break;
      case AccessOutcome::RfoShared:
        ++stats_.rfos;
        cost += tm.rfoShared;
        break;
    }

    if (sink_ && isHitm(outcome)) {
        HitmEvent ev;
        ev.core = t.tid;
        ev.pcIndex = t.pc;
        ev.vaddr = addr;
        ev.accessSize = static_cast<std::uint8_t>(size);
        ev.isLoadUop = outcome == AccessOutcome::HitmLoad;
        ev.isStore = is_write;
        ev.cycle = t.clock;
        cost += sink_->onHitm(ev);
    }
    if (memopSink_)
        cost += memopSink_->onMemop(t.tid, t.pc, is_write, t.clock);
    return cost;
}

void
Machine::traceVisibility(ThreadCtx &t, std::uint64_t min_seq,
                         std::uint64_t max_seq, std::uint64_t count)
{
    if (cfg_.recordTsoTrace)
        tsoTrace_.push_back({t.tid, min_seq, max_seq, count});
}

std::uint64_t
Machine::flushSsb(ThreadCtx &t)
{
    if (t.ssb.empty())
        return 0;

    const TimingModel &tm = cfg_.timing;
    std::vector<SsbDrainEntry> entries = t.ssb.drain();
    ++stats_.ssbFlushes;
    stats_.ssbFlushedEntries += entries.size();

    std::uint64_t cost = tm.ssbFlushBase;

    if (cfg_.ssbMode == SsbMode::Fifo) {
        // The queue drains one store at a time, each individually
        // globally visible (trivially TSO, impractically slow/large).
        for (const SsbDrainEntry &e : entries) {
            cost += memAccess(t, e.addr, 8, true, false, false);
            for (int lane = 0; lane < 8; ++lane) {
                if (e.validMask & (1u << lane))
                    mem_.writeByte(e.addr + lane, e.bytes[lane]);
            }
            traceVisibility(t, e.minSeq, e.maxSeq, 1);
        }
        return cost;
    }

    // Coalescing mode: the flush is one hardware transaction — all lines
    // are acquired and all bytes become visible atomically (strong
    // atomicity, Section 5.5), so no illegal reordering is observable.
    // The drain is ordered by chunk address, so equal lines are
    // adjacent and each line is acquired once, in ascending order.
    const std::uint64_t line_bytes = proto_->lineBytes();
    std::vector<std::uint64_t> lines;
    lines.reserve(entries.size());
    std::uint64_t min_seq = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_seq = 0;
    for (const SsbDrainEntry &e : entries) {
        const std::uint64_t line = proto_->lineOf(e.addr);
        if (lines.empty() || lines.back() != line)
            lines.push_back(line);
        min_seq = std::min(min_seq, e.minSeq);
        max_seq = std::max(max_seq, e.maxSeq);
    }
    for (std::uint64_t line : lines)
        cost += memAccess(t, line * line_bytes,
                          static_cast<int>(line_bytes), true, false,
                          false);
    for (const SsbDrainEntry &e : entries) {
        for (int lane = 0; lane < 8; ++lane) {
            if (e.validMask & (1u << lane))
                mem_.writeByte(e.addr + lane, e.bytes[lane]);
        }
    }
    traceVisibility(t, min_seq, max_seq, entries.size());
    return cost;
}

std::uint64_t
Machine::ssbStore(ThreadCtx &t, std::uint64_t addr, int size,
                  std::uint64_t value)
{
    ++stats_.ssbStores;
    t.ssb.put(addr, size, value, ++t.storeSeq);
    const std::size_t entries = t.ssb.entryCount();
    stats_.ssbMaxEntriesSeen = std::max<std::uint64_t>(
        stats_.ssbMaxEntriesSeen, entries);
    std::uint64_t cost = cfg_.timing.ssbStore;
    if (entries > static_cast<std::size_t>(cfg_.ssbMaxEntries))
        cost += flushSsb(t);
    return cost;
}

std::uint64_t
Machine::syncComplete(ThreadCtx &t, SyncKind kind)
{
    ++stats_.syncOps;
    std::uint64_t cost = 0;
    if (sink_) {
        cost = sink_->onSync(t.tid, kind,
                             static_cast<std::uint64_t>(
                                 t.dirtyPages.size()),
                             t.clock);
    }
    if (cfg_.trackDirtyPages)
        t.dirtyPages.clear();
    return cost;
}

inline std::uint32_t
Machine::stepLocal(ThreadCtx &t, const Instruction &insn, std::uint32_t pc)
{
    std::uint32_t next = pc + 1;
    auto regU = [&](isa::Reg r) {
        return static_cast<std::uint64_t>(t.regs[r]);
    };

    switch (insn.op) {
      case Op::Nop:
      case Op::Pause:
        break;
      case Op::MovImm:
        setReg(t, insn.dst, insn.imm);
        break;
      case Op::MovReg:
        setReg(t, insn.dst, t.regs[insn.src1]);
        break;
      // ALU arithmetic wraps modulo 2^64 like the hardware it models;
      // compute unsigned to keep overflow defined.
      case Op::Add:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(regU(insn.src1) +
                                         regU(insn.src2)));
        break;
      case Op::AddImm:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(
                   regU(insn.src1) +
                   static_cast<std::uint64_t>(insn.imm)));
        break;
      case Op::Sub:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(regU(insn.src1) -
                                         regU(insn.src2)));
        break;
      case Op::SubImm:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(
                   regU(insn.src1) -
                   static_cast<std::uint64_t>(insn.imm)));
        break;
      case Op::Mul:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(regU(insn.src1) *
                                         regU(insn.src2)));
        break;
      case Op::MulImm:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(
                   regU(insn.src1) *
                   static_cast<std::uint64_t>(insn.imm)));
        break;
      case Op::And:
        setReg(t, insn.dst, t.regs[insn.src1] & t.regs[insn.src2]);
        break;
      case Op::Or:
        setReg(t, insn.dst, t.regs[insn.src1] | t.regs[insn.src2]);
        break;
      case Op::Xor:
        setReg(t, insn.dst, t.regs[insn.src1] ^ t.regs[insn.src2]);
        break;
      case Op::ShlImm:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(regU(insn.src1) << insn.imm));
        break;
      case Op::ShrImm:
        setReg(t, insn.dst,
               static_cast<std::int64_t>(regU(insn.src1) >> insn.imm));
        break;
      case Op::Tid:
        setReg(t, insn.dst, t.tid);
        break;

      case Op::Jmp:
        next = static_cast<std::uint32_t>(insn.target);
        break;
      case Op::JmpReg:
      case Op::Ret:
        next = static_cast<std::uint32_t>(regU(insn.src1));
        break;
      case Op::Call:
        setReg(t, insn.dst, pc + 1);
        next = static_cast<std::uint32_t>(insn.target);
        break;
      case Op::Beq:
        if (t.regs[insn.src1] == t.regs[insn.src2])
            next = static_cast<std::uint32_t>(insn.target);
        break;
      case Op::Bne:
        if (t.regs[insn.src1] != t.regs[insn.src2])
            next = static_cast<std::uint32_t>(insn.target);
        break;
      case Op::Blt:
        if (t.regs[insn.src1] < t.regs[insn.src2])
            next = static_cast<std::uint32_t>(insn.target);
        break;
      case Op::Bge:
        if (t.regs[insn.src1] >= t.regs[insn.src2])
            next = static_cast<std::uint32_t>(insn.target);
        break;

      default:
        // Not a block op: execute() handles it.
        break;
    }
    return next;
}

void
Machine::execute(ThreadCtx &t)
{
    const Instruction &insn = prog_.code[t.pc];
    const TimingModel &tm = cfg_.timing;
    std::uint64_t cost = tm.base;
    std::uint32_t next = t.pc + 1;
    auto regU = [&](isa::Reg r) {
        return static_cast<std::uint64_t>(t.regs[r]);
    };

    switch (insn.op) {
      case Op::Halt:
        t.halted = true;
        break;

      case Op::Load: {
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        std::uint64_t value = 0;
        if (insn.useSsb && !insn.ssbSkip) {
            cost += tm.ssbLoadCheck;
            if (t.ssb.getFull(addr, insn.size, &value)) {
                ++stats_.ssbLoadHits;
                cost += tm.ssbLoadHit;
            } else {
                cost += memAccess(t, addr, insn.size, false, true, false);
                value = t.ssb.merge(addr, insn.size,
                                    mem_.read(addr, insn.size));
            }
        } else {
            cost += memAccess(t, addr, insn.size, false, true, false);
            value = mem_.read(addr, insn.size);
        }
        setReg(t, insn.dst, static_cast<std::int64_t>(value));
        break;
      }

      case Op::Store: {
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        const std::uint64_t value = regU(insn.src2);
        if (insn.useSsb) {
            cost += ssbStore(t, addr, insn.size, value);
        } else {
            cost += memAccess(t, addr, insn.size, true, false, false);
            mem_.write(addr, insn.size, value);
            ++t.storeSeq;
            traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        }
        if (insn.sync == SyncKind::LockRelease)
            cost += syncComplete(t, SyncKind::LockRelease);
        break;
      }

      case Op::AddMem: {
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        if (insn.useSsb) {
            cost += tm.ssbLoadCheck;
            std::uint64_t value = 0;
            if (!t.ssb.getFull(addr, insn.size, &value)) {
                cost += memAccess(t, addr, insn.size, false, true, false);
                value = t.ssb.merge(addr, insn.size,
                                    mem_.read(addr, insn.size));
            }
            value += regU(insn.src2);
            cost += ssbStore(t, addr, insn.size, value);
        } else {
            // One coherence access with write intent; the load uop is
            // what a PEBS HITM record would attribute (Section 4.3: such
            // instructions are in both the load and store sets).
            cost += memAccess(t, addr, insn.size, true, true, false);
            const std::uint64_t value =
                mem_.read(addr, insn.size) + regU(insn.src2);
            mem_.write(addr, insn.size, value);
            ++t.storeSeq;
            traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        }
        break;
      }

      case Op::Cas: {
        // Atomics have fence semantics: drain the SSB first.
        cost += flushSsb(t);
        cost += tm.atomicExtra;
        ++stats_.atomics;
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        cost += memAccess(t, addr, insn.size, true, true, true);
        const std::uint64_t old = mem_.read(addr, insn.size);
        const bool success = old == regU(insn.src2);
        if (success) {
            mem_.write(addr, insn.size, regU(insn.dst));
            ++t.storeSeq;
            traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        }
        setReg(t, insn.dst, static_cast<std::int64_t>(old));
        if (insn.sync == SyncKind::LockAcquire && success)
            cost += syncComplete(t, SyncKind::LockAcquire);
        break;
      }

      case Op::FetchAdd: {
        cost += flushSsb(t);
        cost += tm.atomicExtra;
        ++stats_.atomics;
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        cost += memAccess(t, addr, insn.size, true, true, true);
        const std::uint64_t old = mem_.read(addr, insn.size);
        mem_.write(addr, insn.size, old + regU(insn.src2));
        ++t.storeSeq;
        traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        setReg(t, insn.dst, static_cast<std::int64_t>(old));
        if (insn.sync == SyncKind::BarrierWait)
            cost += syncComplete(t, SyncKind::BarrierWait);
        break;
      }

      case Op::Fence:
        cost += tm.fenceCost;
        cost += flushSsb(t);
        break;

      case Op::SsbFlush:
        cost += flushSsb(t);
        break;

      case Op::AliasCheck: {
        ++stats_.aliasChecks;
        cost += tm.aliasCheckCost;
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        if (t.ssb.containsAny(addr, 8)) {
            // Mis-speculation: recover by flushing (a thread-local
            // decision that cannot violate TSO, Section 5.3).
            ++stats_.aliasMisspecs;
            cost += flushSsb(t);
        }
        break;
      }

      default:
        // Thread-local: registers, pc and clock only.
        cost = localCost(insn.op, tm);
        next = stepLocal(t, insn, t.pc);
        break;
    }

    t.pc = next;
    t.clock += cost;
    ++t.instructions;
    ++stats_.instructions;
}

void
Machine::runAhead(ThreadCtx &t, std::uint64_t pick_clock,
                  std::uint64_t others)
{
    // An instruction may run ahead only if instructions + others *
    // (clock - pick_clock + 1) < maxInstructions when t reaches it (see
    // the file comment of machine.h).
    const std::uint64_t max = cfg_.maxInstructions;
    for (;;) {
        const Block &b = blocks_[t.pc];
        if (b.length == 0)
            return;
        // Checked at the block's last instruction; both terms only grow
        // along the block, so the bound held at every earlier one.
        if (stats_.instructions + (b.length - 1) +
                others * (t.clock + b.leadCycles - pick_clock + 1) >=
            max) {
            // Near the cut: check before every instruction.
            while (blocks_[t.pc].length != 0 &&
                   stats_.instructions +
                           others * (t.clock - pick_clock + 1) <
                       max)
                execute(t);
            return;
        }
        const Instruction *code = prog_.code.data();
        const Op last = code[t.pc + b.length - 1].op;
        std::uint32_t pc = t.pc;
        for (std::uint32_t n = b.length; n > 0; --n)
            pc = stepLocal(t, code[pc], pc);
        t.pc = pc;
        t.clock += b.leadCycles + localCost(last, cfg_.timing);
        t.instructions += b.length;
        stats_.instructions += b.length;
    }
}

MachineStats
Machine::run()
{
    if (ran_)
        return stats_;
    ran_ = true;

    // Run-ahead is exact only if every instruction costs at least one
    // cycle (runAhead's bound counts on it); with a zero base cost every
    // instruction gets its own scheduling decision.
    const bool run_ahead = cfg_.timing.base > 0;
    while (stats_.instructions < cfg_.maxInstructions) {
        ThreadCtx *best = nullptr;
        std::uint64_t runnable = 0;
        for (ThreadCtx &t : threads_) {
            if (t.halted)
                continue;
            ++runnable;
            if (!best || t.clock < best->clock)
                best = &t;
        }
        if (!best)
            break;
        ThreadCtx &t = *best;
        const std::uint64_t pick_clock = t.clock;
        execute(t);
        if (run_ahead && !t.halted)
            runAhead(t, pick_clock, runnable - 1);
    }

    if (stats_.instructions >= cfg_.maxInstructions)
        stats_.truncated = true;

    // Drain any abandoned store buffers (a real fence would precede
    // thread exit) so final memory is complete for result checking.
    for (ThreadCtx &t : threads_)
        flushSsb(t);

    for (const ThreadCtx &t : threads_) {
        stats_.threadCycles[t.tid] = t.clock;
        stats_.threadInstructions[t.tid] = t.instructions;
        stats_.cycles = std::max(stats_.cycles, t.clock);
    }
    return stats_;
}

} // namespace laser::sim
