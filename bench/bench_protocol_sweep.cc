/**
 * @file
 * Protocol/geometry robustness sweep: Table-1-style detection accuracy
 * of LASERDETECT under each coherence backend (directory MESI and the
 * update-based Dragon bus) crossed with {32, 64, 128}-byte cache lines.
 *
 * The paper's whole detection signal is the HITM event; this bench asks
 * how that signal — and the accuracy built on it — holds up when the
 * fabric generating it changes. Under MESI every false-sharing write
 * ping-pong raises a HITM; under Dragon only the first touch of a dirty
 * remote line does (later writes become bus updates), so the HITM rate
 * starves and detection degrades — which is the robustness observation
 * this sweep quantifies. Line size scales how much disjoint data
 * cohabits a line, so the false-sharing population itself grows with
 * 128-byte lines and shrinks with 32-byte ones.
 *
 * Every (protocol, line size) combination hashes to its own trace-cache
 * key (the v4 config section includes both), so repeat invocations with
 * LASER_TRACE_CACHE set replay entirely from disk.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/protocol.h"
#include "trace/parallel_replay.h"

using namespace laser;

int
main()
{
    bench::banner("Protocol/geometry accuracy sweep",
                  "Table 1 across coherence fabrics");
    obs::BenchReport telemetry("protocol_sweep");

    const auto &all = workloads::allWorkloads();
    core::SweepRunner runner(bench::sweepConfig());

    const sim::ProtocolKind kProtocols[] = {sim::ProtocolKind::Mesi,
                                            sim::ProtocolKind::Dragon};
    const std::uint32_t kLineSizes[] = {32, 64, 128};

    struct Cell
    {
        sim::ProtocolKind protocol = sim::ProtocolKind::Mesi;
        std::uint32_t lineBytes = 64;
        int falseNegatives = 0;
        int falsePositives = 0;
        std::uint64_t hitmTotal = 0;
    };
    std::vector<Cell> cells;
    for (sim::ProtocolKind p : kProtocols)
        for (std::uint32_t lb : kLineSizes)
            cells.push_back({p, lb, 0, 0, 0});

    // One job per (workload, combination); the sweep runner coalesces
    // and cache-serves captures, and each cell's tallies are disjoint
    // slots indexed by the job, so the fan-out is race-free.
    struct Tally
    {
        core::AccuracyResult accuracy;
        std::uint64_t hitms = 0;
    };
    std::vector<Tally> tallies(cells.size() * all.size());
    runner.parallelFor(tallies.size(), [&](std::size_t job) {
        const Cell &cell = cells[job / all.size()];
        const workloads::WorkloadDef &w = all[job % all.size()];

        trace::CaptureOptions opt;
        opt.protocol = cell.protocol;
        opt.geometry.lineBytes = cell.lineBytes;
        const auto trace = runner.captureFile(w, opt);
        tallies[job].hitms = trace->meta().stats.hitmTotal();
        tallies[job].accuracy = core::evaluateAccuracy(
            w.info, core::reportLocations(trace::replayDetection(
                        *trace, 4, &runner.pool())));
    });

    int total_bugs = 0;
    for (const auto &w : all)
        total_bugs += static_cast<int>(w.info.bugs.size());
    for (std::size_t job = 0; job < tallies.size(); ++job) {
        Cell &cell = cells[job / all.size()];
        cell.falseNegatives += tallies[job].accuracy.falseNegatives;
        cell.falsePositives += tallies[job].accuracy.falsePositives;
        cell.hitmTotal += tallies[job].hitms;
    }

    TablePrinter table({"protocol", "line bytes", "HITM events",
                        "false negatives", "false positives"});
    for (const Cell &cell : cells)
        table.addRow({sim::protocolName(cell.protocol),
                      std::to_string(cell.lineBytes),
                      std::to_string(cell.hitmTotal),
                      std::to_string(cell.falseNegatives),
                      std::to_string(cell.falsePositives)});
    std::fputs(table.render().c_str(), stdout);

    std::printf("\nShape check: MESI at 64-byte lines is the paper's "
                "configuration (%d bugs; LASER misses none). Dragon's "
                "update-based fabric raises HITMs only on first-touch "
                "dirty interventions, so its event counts collapse and "
                "false negatives appear — the detection signal is "
                "protocol-dependent. Wider lines breed more false "
                "sharing (more HITMs); narrower lines less.\n",
                total_bugs);

    telemetry.results()
        .set("workloads", obs::Json(std::uint64_t(all.size())))
        .set("total_bugs", obs::Json(total_bugs));
    for (const Cell &cell : cells) {
        const std::string prefix =
            std::string(sim::protocolName(cell.protocol)) + "_" +
            std::to_string(cell.lineBytes);
        telemetry.results()
            .set(prefix + "_hitm_events", obs::Json(cell.hitmTotal))
            .set(prefix + "_false_negatives",
                 obs::Json(cell.falseNegatives))
            .set(prefix + "_false_positives",
                 obs::Json(cell.falsePositives));
    }
    const core::SweepStats stats = runner.stats();
    bench::writeTelemetry(telemetry, &stats);
    return 0;
}
