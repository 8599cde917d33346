/**
 * @file
 * Core types of the x86-like IR used throughout the LASER reproduction.
 *
 * The paper operates on real x86 binaries via Pin; this reproduction uses a
 * small register/memory IR with the properties the LASER analyses care
 * about: PCs, load/store instructions with byte sizes, read-modify-write
 * instructions that are simultaneously loads and stores (Section 4.3),
 * atomics with fence semantics, and explicit memory fences (Section 5.4).
 */

#ifndef LASER_ISA_TYPES_H
#define LASER_ISA_TYPES_H

#include <cstdint>

namespace laser::isa {

/** General-purpose register index. */
using Reg = std::uint8_t;

/** Number of general-purpose registers. */
constexpr int kNumRegs = 16;

// Register conventions used by the assembler runtime library.
constexpr Reg R0 = 0;   ///< always zero by convention (never written)
constexpr Reg R1 = 1;
constexpr Reg R2 = 2;
constexpr Reg R3 = 3;
constexpr Reg R4 = 4;
constexpr Reg R5 = 5;
constexpr Reg R6 = 6;
constexpr Reg R7 = 7;
constexpr Reg R8 = 8;
constexpr Reg R9 = 9;
constexpr Reg R10 = 10; ///< runtime-library return value
constexpr Reg R11 = 11; ///< runtime-library scratch
constexpr Reg R12 = 12; ///< runtime-library argument (object address)
constexpr Reg R13 = 13; ///< runtime-library scratch
constexpr Reg R14 = 14; ///< link register for Call/Ret
constexpr Reg R15 = 15; ///< stack pointer (initialized per thread)

/** Opcode set. See Instruction for operand meanings. */
enum class Op : std::uint8_t {
    Nop,
    Halt,       ///< terminate this thread
    MovImm,     ///< dst <- imm
    MovReg,     ///< dst <- src1
    Add,        ///< dst <- src1 + src2
    AddImm,     ///< dst <- src1 + imm
    Sub,        ///< dst <- src1 - src2
    SubImm,     ///< dst <- src1 - imm
    Mul,        ///< dst <- src1 * src2
    MulImm,     ///< dst <- src1 * imm
    And,        ///< dst <- src1 & src2
    Or,         ///< dst <- src1 | src2
    Xor,        ///< dst <- src1 ^ src2
    ShlImm,     ///< dst <- src1 << imm
    ShrImm,     ///< dst <- src1 >> imm (logical)
    Load,       ///< dst <- mem[src1 + imm] (size bytes)
    Store,      ///< mem[src1 + imm] <- src2 (size bytes)
    AddMem,     ///< mem[src1 + imm] += src2; non-atomic RMW (load AND store)
    Cas,        ///< atomic: old <- mem[src1+imm]; if old == src2 then
                ///<         mem <- dst; dst <- old. Full fence.
    FetchAdd,   ///< atomic: dst <- mem[src1+imm]; mem += src2. Full fence.
    Fence,      ///< mfence: drains the (software) store buffer
    Jmp,        ///< unconditional branch to target
    JmpReg,     ///< indirect branch to instruction index in src1
    Call,       ///< dst <- next index; branch to target
    Ret,        ///< branch to instruction index in src1 (link register)
    Beq,        ///< if src1 == src2 branch to target
    Bne,        ///< if src1 != src2 branch to target
    Blt,        ///< if src1 <  src2 (signed) branch to target
    Bge,        ///< if src1 >= src2 (signed) branch to target
    Pause,      ///< spin-loop hint (consumes cycles, no effect)
    Tid,        ///< dst <- hardware thread id
    SsbFlush,   ///< flush the software store buffer (inserted by repair)
    AliasCheck, ///< check mem[src1+imm] against SSB (inserted by repair)
};

/**
 * Marks instructions emitted as part of a synchronization operation so the
 * Sheriff baseline (which pays a page-diff cost per synchronization, see
 * Section 7.3) and the repair analysis (fences constrain flush placement,
 * Section 5.4) can recognize them.
 */
enum class SyncKind : std::uint8_t {
    None,
    LockAcquire,
    LockRelease,
    BarrierWait,
};

/** A single IR instruction. Each occupies 4 bytes of virtual code space. */
struct Instruction
{
    Op op = Op::Nop;
    Reg dst = 0;
    Reg src1 = 0;
    Reg src2 = 0;
    /** Access size in bytes for memory operations (1, 2, 4 or 8). */
    std::uint8_t size = 8;
    SyncKind sync = SyncKind::None;
    /** Set by LASERREPAIR: this memory operation goes through the SSB. */
    bool useSsb = false;
    /**
     * Set by LASERREPAIR's speculative alias analysis: this load was proven
     * (speculatively) not to alias any buffered store and may skip the SSB
     * lookup; a preceding AliasCheck validates the speculation at runtime.
     */
    bool ssbSkip = false;
    /** Branch/call target as an instruction index; -1 if unused. */
    std::int32_t target = -1;
    /** Immediate operand / address displacement. */
    std::int64_t imm = 0;
    /** Source file id (index into Program::files). */
    std::uint16_t file = 0;
    /** Source line number within that file. */
    std::uint32_t line = 0;
};

/** True if the op reads memory (includes RMW and atomics). */
constexpr bool
opReadsMemory(Op op)
{
    return op == Op::Load || op == Op::AddMem || op == Op::Cas ||
           op == Op::FetchAdd;
}

/** True if the op writes memory (includes RMW and atomics). */
constexpr bool
opWritesMemory(Op op)
{
    return op == Op::Store || op == Op::AddMem || op == Op::Cas ||
           op == Op::FetchAdd;
}

/** True if the op accesses memory at all. */
constexpr bool
opAccessesMemory(Op op)
{
    return opReadsMemory(op) || opWritesMemory(op);
}

/**
 * True if executing the op touches only its own thread's state
 * (registers, pc, clock): no memory, coherence protocol, store buffer,
 * PMU callback or store-visibility event. Such instructions commute
 * with every other thread's instructions, which is what lets the
 * machine run a thread ahead over them without a scheduling decision.
 */
constexpr bool
opIsThreadLocal(Op op)
{
    return !opAccessesMemory(op) && op != Op::Fence &&
           op != Op::SsbFlush && op != Op::AliasCheck;
}

/** True for atomic read-modify-write operations (full fence semantics). */
constexpr bool
opIsAtomic(Op op)
{
    return op == Op::Cas || op == Op::FetchAdd;
}

/** True for operations with (explicit or implicit) fence semantics. */
constexpr bool
opIsFence(Op op)
{
    return op == Op::Fence || opIsAtomic(op);
}

/** True for control-transfer operations. */
constexpr bool
opIsBranch(Op op)
{
    return op == Op::Jmp || op == Op::JmpReg || op == Op::Call ||
           op == Op::Ret || op == Op::Beq || op == Op::Bne ||
           op == Op::Blt || op == Op::Bge;
}

/** True for conditional branches (fall-through is possible). */
constexpr bool
opIsCondBranch(Op op)
{
    return op == Op::Beq || op == Op::Bne || op == Op::Blt || op == Op::Bge;
}

/** Printable mnemonic for an opcode. */
const char *opName(Op op);

/** Size of one encoded instruction in bytes of virtual code space. */
constexpr std::uint64_t kInsnBytes = 4;

} // namespace laser::isa

#endif // LASER_ISA_TYPES_H
