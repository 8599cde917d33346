/**
 * @file
 * PEBS record inspection: run a read-write and a write-write sharing
 * microkernel with ground-truth retention and show exactly how precise
 * the HITM records are — a miniature of the paper's Figure 3 study and
 * a demonstration of why LASERDETECT's pipeline is built to tolerate
 * noisy records.
 *
 *   ./build/pebs_characterization
 */

#include <cstdio>

#include "isa/assembler.h"
#include "pebs/monitor.h"
#include "sim/machine.h"
#include "util/table.h"

using namespace laser;
using namespace laser::isa;

namespace {

isa::Program
sharingKernel(bool write_write)
{
    Asm a(write_write ? "ww" : "rw");
    Asm::Label done = a.newLabel();
    Asm::Label t1 = a.newLabel();
    a.at(10).tid(R1);
    a.movi(R9, 1);
    a.bne(R1, R0, t1);
    a.movi(R2, 0x1500000);
    a.movi(R3, 3000);
    Asm::Label l0 = a.here();
    a.at(20).store(R2, 0, R3, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, l0);
    a.jmp(done);
    a.bind(t1);
    a.bne(R1, R9, done);
    a.movi(R2, 0x1500000);
    a.movi(R3, 3000);
    Asm::Label l1 = a.here();
    if (write_write)
        a.at(30).store(R2, 8, R3, 8); // disjoint word, same line
    else
        a.at(30).load(R4, R2, 0, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, l1);
    a.bind(done);
    a.halt();
    return a.finalize();
}

void
characterize(const char *label, bool write_write)
{
    isa::Program prog = sharingKernel(write_write);
    sim::MachineConfig mc;
    sim::Machine machine(prog, mc);
    pebs::PebsConfig pc;
    pc.sav = 1; // sampling off, like the paper's study
    pc.keepGroundTruth = true;
    pebs::PebsMonitor mon(machine.addressSpace(), prog.size(), mc.timing,
                          pc);
    machine.setPmuSink(&mon);
    machine.run();
    mon.finish();

    std::size_t n = mon.records().size();
    std::size_t addr_ok = 0, pc_ok = 0, pc_adj = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &r = mon.records()[i];
        const auto &t = mon.truths()[i];
        addr_ok += r.dataAddr == t.trueAddr;
        const auto idx = machine.addressSpace().pcToIndex(r.pc);
        const auto tidx = machine.addressSpace().pcToIndex(t.truePc);
        pc_ok += idx == tidx;
        pc_adj += idx >= 0 && std::llabs(idx - tidx) <= 1;
    }
    std::printf("%s: %zu records | data address correct %5.1f%% | PC "
                "exact %5.1f%% | PC +-1 %5.1f%%\n",
                label, n, 100.0 * addr_ok / n, 100.0 * pc_ok / n,
                100.0 * pc_adj / n);
}

} // namespace

int
main()
{
    std::printf("HITM PEBS record precision (SAV=1, ground truth "
                "retained):\n\n");
    characterize("read-write sharing (Fig 1a, load-triggered records)",
                 false);
    characterize("write-write sharing (Fig 1c, store-triggered records)",
                 true);
    std::printf(
        "\nLoad-triggered records are precise enough to locate bugs; "
        "store-triggered ones are mostly noise. LASERDETECT therefore "
        "aggregates by source line (PC skid stays local), ignores "
        "addresses it cannot trust, and reports 'unknown' rather than "
        "guessing a contention type (Section 4).\n");
    return 0;
}
