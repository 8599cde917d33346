#include "isa/program.h"

#include <sstream>

namespace laser::isa {

namespace {

/** A register as disassembly prints it: "r" and its number. */
struct RegName
{
    Reg reg;
};

std::ostream &
operator<<(std::ostream &os, RegName r)
{
    return os << 'r' << int(r.reg);
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop:        return "nop";
      case Op::Halt:       return "halt";
      case Op::MovImm:     return "movi";
      case Op::MovReg:     return "mov";
      case Op::Add:        return "add";
      case Op::AddImm:     return "addi";
      case Op::Sub:        return "sub";
      case Op::SubImm:     return "subi";
      case Op::Mul:        return "mul";
      case Op::MulImm:     return "muli";
      case Op::And:        return "and";
      case Op::Or:         return "or";
      case Op::Xor:        return "xor";
      case Op::ShlImm:     return "shl";
      case Op::ShrImm:     return "shr";
      case Op::Load:       return "load";
      case Op::Store:      return "store";
      case Op::AddMem:     return "addmem";
      case Op::Cas:        return "cas";
      case Op::FetchAdd:   return "fetchadd";
      case Op::Fence:      return "fence";
      case Op::Jmp:        return "jmp";
      case Op::JmpReg:     return "jmpreg";
      case Op::Call:       return "call";
      case Op::Ret:        return "ret";
      case Op::Beq:        return "beq";
      case Op::Bne:        return "bne";
      case Op::Blt:        return "blt";
      case Op::Bge:        return "bge";
      case Op::Pause:      return "pause";
      case Op::Tid:        return "tid";
      case Op::SsbFlush:   return "ssbflush";
      case Op::AliasCheck: return "aliaschk";
    }
    return "???";
}

std::string
Program::locString(std::uint32_t index) const
{
    return locString(locOf(index));
}

std::string
Program::locString(SourceLoc loc) const
{
    std::ostringstream os;
    if (loc.file < files.size())
        os << files[loc.file].name;
    else
        os << "<file" << loc.file << ">";
    os << ":" << loc.line;
    return os.str();
}

const Segment *
Program::segmentOf(std::uint32_t index) const
{
    for (const Segment &seg : segments) {
        if (index >= seg.begin && index < seg.end)
            return &seg;
    }
    return nullptr;
}

std::string
Program::disassemble(std::uint32_t index) const
{
    const Instruction &insn = code.at(index);
    std::ostringstream os;
    os << index << ":\t" << opName(insn.op);
    auto reg = [](Reg r) { return RegName{r}; };
    switch (insn.op) {
      case Op::MovImm:
        os << " " << reg(insn.dst) << ", " << insn.imm;
        break;
      case Op::MovReg:
        os << " " << reg(insn.dst) << ", " << reg(insn.src1);
        break;
      case Op::Add: case Op::Sub: case Op::Mul: case Op::And:
      case Op::Or: case Op::Xor:
        os << " " << reg(insn.dst) << ", " << reg(insn.src1) << ", "
           << reg(insn.src2);
        break;
      case Op::AddImm: case Op::SubImm: case Op::MulImm:
      case Op::ShlImm: case Op::ShrImm:
        os << " " << reg(insn.dst) << ", " << reg(insn.src1) << ", "
           << insn.imm;
        break;
      case Op::Load:
        os << int(insn.size) << " " << reg(insn.dst) << ", ["
           << reg(insn.src1) << (insn.imm >= 0 ? "+" : "") << insn.imm
           << "]";
        break;
      case Op::Store:
        os << int(insn.size) << " [" << reg(insn.src1)
           << (insn.imm >= 0 ? "+" : "") << insn.imm << "], "
           << reg(insn.src2);
        break;
      case Op::AddMem:
        os << int(insn.size) << " [" << reg(insn.src1)
           << (insn.imm >= 0 ? "+" : "") << insn.imm << "], "
           << reg(insn.src2);
        break;
      case Op::Cas:
        os << " " << reg(insn.dst) << ", [" << reg(insn.src1)
           << (insn.imm >= 0 ? "+" : "") << insn.imm << "], expect "
           << reg(insn.src2);
        break;
      case Op::FetchAdd:
        os << " " << reg(insn.dst) << ", [" << reg(insn.src1)
           << (insn.imm >= 0 ? "+" : "") << insn.imm << "], "
           << reg(insn.src2);
        break;
      case Op::Jmp: case Op::Call:
        os << " @" << insn.target;
        break;
      case Op::JmpReg: case Op::Ret:
        os << " " << reg(insn.src1);
        break;
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
        os << " " << reg(insn.src1) << ", " << reg(insn.src2) << ", @"
           << insn.target;
        break;
      case Op::Tid:
        os << " " << reg(insn.dst);
        break;
      case Op::AliasCheck:
        os << " [" << reg(insn.src1) << (insn.imm >= 0 ? "+" : "")
           << insn.imm << "]";
        break;
      default:
        break;
    }
    if (insn.useSsb)
        os << "  {ssb}";
    if (insn.ssbSkip)
        os << "  {skip}";
    if (insn.sync != SyncKind::None)
        os << "  {sync}";
    os << "\t; " << locString(index);
    return os.str();
}

std::string
Program::disassembleAll() const
{
    std::ostringstream os;
    for (const Segment &seg : segments) {
        os << "; segment " << seg.name << (seg.isLibrary ? " (lib)" : "")
           << " [" << seg.begin << ", " << seg.end << ")\n";
        for (std::uint32_t i = seg.begin; i < seg.end; ++i)
            os << disassemble(i) << "\n";
    }
    return os.str();
}

std::string
Program::validate() const
{
    if (code.empty())
        return "empty program";
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Instruction &insn = code[i];
        auto err = [&](const std::string &what) {
            return "insn " + std::to_string(i) + " (" + opName(insn.op) +
                   "): " + what;
        };
        if (insn.dst >= kNumRegs || insn.src1 >= kNumRegs ||
                insn.src2 >= kNumRegs) {
            return err("register out of range");
        }
        if (opAccessesMemory(insn.op)) {
            if (insn.size != 1 && insn.size != 2 && insn.size != 4 &&
                    insn.size != 8) {
                return err("bad access size " + std::to_string(insn.size));
            }
        }
        const bool needs_target = insn.op == Op::Jmp || insn.op == Op::Call ||
                                  opIsCondBranch(insn.op);
        if (needs_target) {
            if (insn.target < 0 ||
                    insn.target >= static_cast<std::int32_t>(code.size())) {
                return err("branch target out of range");
            }
        }
        if (insn.file >= files.size())
            return err("file id out of range");
    }
    // Segments must be non-empty, contiguous and cover all code.
    std::uint32_t expect = 0;
    for (const Segment &seg : segments) {
        if (seg.begin != expect)
            return "segment " + seg.name + " not contiguous";
        if (seg.end <= seg.begin)
            return "segment " + seg.name + " empty";
        expect = seg.end;
    }
    if (expect != code.size())
        return "segments do not cover program";
    return "";
}

} // namespace laser::isa
