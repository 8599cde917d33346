/**
 * @file
 * Quickstart: detect and repair false sharing in a tiny program.
 *
 * Builds a two-thread kernel whose threads increment adjacent words of
 * the same cache line, runs it under LASER (PEBS monitoring + the
 * detection pipeline), prints the report, lets LASERREPAIR rewrite the
 * binary with a software store buffer, and shows the speedup.
 *
 *   ./build/quickstart
 */

#include <cstdio>
#include <vector>

#include "analysis/sink.h"
#include "detect/pipeline.h"
#include "isa/assembler.h"
#include "pebs/monitor.h"
#include "repair/repairer.h"
#include "sim/machine.h"
#include "util/table.h"

using namespace laser;
using namespace laser::isa;

int
main()
{
    // ------------------------------------------------------------------
    // 1. A buggy program: two threads pound adjacent words of one line.
    // ------------------------------------------------------------------
    Asm a("quickstart", "worker.c");
    Asm::Label done = a.newLabel();
    a.at(10).tid(R1);
    a.movi(R9, 2);
    a.bge(R1, R9, done);          // threads 0 and 1 only
    a.at(12).movi(R2, 0x1000000); // &counters[0]
    a.muli(R3, R1, 8);
    a.add(R2, R2, R3);            // &counters[tid] — same cache line!
    a.movi(R4, 1);
    a.movi(R5, 40000);
    Asm::Label loop = a.here();
    a.at(20).addmem(R2, 0, R4, 8); // counters[tid]++  <- the bug
    a.at(21).subi(R5, R5, 1);
    a.bne(R5, R0, loop);
    a.bind(done);
    a.at(25).halt();
    isa::Program prog = a.finalize();

    // ------------------------------------------------------------------
    // 2. Run it under LASER: PEBS monitoring feeding the detector.
    // ------------------------------------------------------------------
    sim::MachineConfig mc;
    sim::Machine machine(prog, mc);
    pebs::PebsConfig pebs_cfg; // SAV = 19, the paper's default
    pebs::PebsMonitor monitor(machine.addressSpace(), prog.size(),
                              mc.timing, pebs_cfg);
    machine.setPmuSink(&monitor);
    sim::MachineStats native = machine.run();
    monitor.finish();

    // The driver drains whole per-core buffers at a time; the detector
    // needs the records back in time order to see the interleaving.
    std::vector<pebs::PebsRecord> records = monitor.records();
    analysis::sortByCycle(&records);
    const detect::DetectorContext ctx(
        prog, machine.addressSpace(),
        machine.addressSpace().renderProcMaps(), mc.timing);
    detect::DetectorPipeline detector(ctx);
    analysis::drain(records, detector);
    detect::DetectionReport report = detector.finish(native.cycles);

    std::printf("== LASERDETECT report ==\n");
    std::printf("HITM events: %llu, records: %llu (dropped: %llu "
                "spurious PCs, %llu stack addresses)\n",
                (unsigned long long)native.hitmTotal(),
                (unsigned long long)report.totalRecords,
                (unsigned long long)report.droppedPcFilter,
                (unsigned long long)report.droppedStackData);
    TablePrinter t({"location", "HITM/s", "type", "TS evts", "FS evts"});
    for (const auto &line : report.lines) {
        t.addRow({line.location, fmtDouble(line.hitmRate, 0),
                  detect::contentionTypeName(line.type),
                  std::to_string(line.tsEvents),
                  std::to_string(line.fsEvents)});
    }
    std::fputs(t.render().c_str(), stdout);

    // ------------------------------------------------------------------
    // 3. Repair: rewrite the binary with the software store buffer.
    // ------------------------------------------------------------------
    if (!report.repairRequested) {
        std::printf("\nrepair not requested (rate below threshold)\n");
        return 0;
    }
    repair::RepairOutcome fix =
        repair::repairProgram(prog, report.repairPcs);
    std::printf("\n== LASERREPAIR ==\nplan: %s (est. %0.f stores per "
                "flush, %zu ops instrumented)\n",
                fix.plan.reason.c_str(), fix.plan.estRatio(),
                fix.plan.instrumentedOps.size());
    if (!fix.plan.applied)
        return 0;

    sim::Machine repaired(fix.program, mc);
    sim::MachineStats rs = repaired.run();
    std::printf("native:   %llu cycles, %llu HITM events\n"
                "repaired: %llu cycles, %llu HITM events "
                "(%.1fx faster, %llux fewer HITMs)\n",
                (unsigned long long)native.cycles,
                (unsigned long long)native.hitmTotal(),
                (unsigned long long)rs.cycles,
                (unsigned long long)rs.hitmTotal(),
                double(native.cycles) / double(rs.cycles),
                (unsigned long long)(native.hitmTotal() /
                                     std::max<std::uint64_t>(
                                         1, rs.hitmTotal())));
    return 0;
}
