/**
 * @file
 * Table 1 reproduction: detection accuracy (false negatives / false
 * positives) of LASERDETECT, VTune and Sheriff-Detect over the 35
 * workload configurations.
 *
 * Capture-once/replay-many: each workload's LASER and VTune runs are
 * captured through the sweep runner's trace cache, and the accuracy
 * numbers come from offline replays — LASERDETECT through the sharded
 * parallel replayer, VTune through its offline aggregation. With
 * LASER_TRACE_CACHE pointing at a cache directory, a second invocation
 * performs zero simulations. Sheriff-Detect's object-granularity
 * findings are encoded from Table 1/2 in the workload metadata (see
 * DESIGN.md), so its columns need no machine run at all.
 *
 * Paper totals: 9 bugs; LASER 0 FN / 24 FP; VTune 1 FN (dedup) / 64 FP;
 * Sheriff 3 FN / 4 FP with most workloads crashing ("x") or incompatible
 * ("i").
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/sweep_runner.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"

using namespace laser;

int
main()
{
    bench::banner("Detection accuracy", "Table 1");
    obs::BenchReport telemetry("table1_accuracy");

    const auto &all = workloads::allWorkloads();
    core::SweepRunner runner(bench::sweepConfig());

    // Phase 1: capture (or fetch) every workload's LASER and VTune
    // streams in parallel.
    struct Row
    {
        core::AccuracyResult laser;
        core::AccuracyResult vtune;
    };
    std::vector<Row> rows(all.size());
    runner.parallelFor(all.size(), [&](std::size_t i) {
        const workloads::WorkloadDef &w = all[i];

        // LASER: sharded replay of the captured PEBS stream.
        const auto laser_trace = runner.captureFile(w, {});
        rows[i].laser = core::evaluateAccuracy(
            w.info, core::reportLocations(trace::replayDetection(
                        *laser_trace, 4, &runner.pool())));

        // VTune: offline aggregation of the captured event stream.
        const auto vt_trace = runner.captureFile(
            w, trace::CaptureOptions::forScheme("vtune"));
        trace::TraceReplayer vt_env(vt_trace->meta(), *vt_trace);
        std::vector<std::string> vt_lines;
        for (const auto &l : vt_env.replayVTune().lines)
            vt_lines.push_back(l.location);
        rows[i].vtune = core::evaluateAccuracy(w.info, vt_lines);
    });

    TablePrinter table({"benchmark", "bugs", "LASER FN", "LASER FP",
                        "VTune FN", "VTune FP", "Sheriff FN",
                        "Sheriff FP"});

    int total_bugs = 0;
    int laser_fn = 0, laser_fp = 0;
    int vtune_fn = 0, vtune_fp = 0;
    int sheriff_fn = 0, sheriff_fp = 0;

    for (std::size_t i = 0; i < all.size(); ++i) {
        const workloads::WorkloadDef &w = all[i];
        const int bugs = static_cast<int>(w.info.bugs.size());
        total_bugs += bugs;

        // Sheriff-Detect: compatibility and object-granularity findings
        // are workload metadata (its runtime cost lives in Figure 14).
        std::string sh_fn_str, sh_fp_str;
        const bool sheriff_runs =
            w.info.sheriff == workloads::SheriffCompat::Works ||
            w.info.sheriff == workloads::SheriffCompat::WorksSmallInput;
        if (!sheriff_runs) {
            // Move-assigned: GCC 12's -Wrestrict misjudges assigning
            // the literal directly and warns spuriously.
            sh_fn_str = std::string(
                w.info.sheriff == workloads::SheriffCompat::Incompatible
                    ? "i"
                    : "x");
        } else {
            std::vector<std::string> sites;
            if (w.info.sheriffDetectsBug)
                sites.push_back(w.info.sheriffReportLocation);
            core::AccuracyResult sa =
                core::evaluateAccuracy(w.info, sites);
            // Sheriff's allocation-site report finds the bug but points
            // at the wrong code (Section 7.1): the site itself is a FP.
            int fn = sa.falseNegatives;
            int fp = sa.falsePositives;
            if (w.info.sheriffDetectsBug && !w.info.bugs.empty())
                fn = 0;
            sheriff_fn += fn;
            sheriff_fp += fp;
            sh_fn_str = bench::dashIfZero(fn);
            sh_fp_str = bench::dashIfZero(fp);
        }

        laser_fn += rows[i].laser.falseNegatives;
        laser_fp += rows[i].laser.falsePositives;
        vtune_fn += rows[i].vtune.falseNegatives;
        vtune_fp += rows[i].vtune.falsePositives;

        table.addRow({
            w.info.name,
            bench::dashIfZero(bugs),
            bench::dashIfZero(rows[i].laser.falseNegatives),
            bench::dashIfZero(rows[i].laser.falsePositives),
            bench::dashIfZero(rows[i].vtune.falseNegatives),
            bench::dashIfZero(rows[i].vtune.falsePositives),
            sh_fn_str,
            sh_fp_str,
        });
    }

    table.addSeparator();
    table.addRow({"Total (measured)", std::to_string(total_bugs),
                  std::to_string(laser_fn), std::to_string(laser_fp),
                  std::to_string(vtune_fn), std::to_string(vtune_fp),
                  std::to_string(sheriff_fn), std::to_string(sheriff_fp)});
    table.addRow({"Total (paper)", "9", "0", "24", "1", "64", "3", "4"});
    std::fputs(table.render().c_str(), stdout);

    const core::SweepStats stats = runner.stats();
    std::printf("\nCapture-once/replay-many: %llu simulations, %llu "
                "memory + %llu disk cache hits; accuracy columns are "
                "offline replays (LASER via 4-shard digests).\n",
                (unsigned long long)stats.machineRuns,
                (unsigned long long)stats.memoryCacheHits,
                (unsigned long long)stats.diskCacheHits);
    std::printf("Shape check: LASER misses no bugs and reports fewer "
                "spurious lines than VTune; Sheriff runs on only a "
                "fraction of the suite.\n");

    telemetry.results()
        .set("workloads", obs::Json(std::uint64_t(all.size())))
        .set("total_bugs", obs::Json(total_bugs))
        .set("laser_false_negatives", obs::Json(laser_fn))
        .set("laser_false_positives", obs::Json(laser_fp))
        .set("vtune_false_negatives", obs::Json(vtune_fn))
        .set("vtune_false_positives", obs::Json(vtune_fp))
        .set("sheriff_false_negatives", obs::Json(sheriff_fn))
        .set("sheriff_false_positives", obs::Json(sheriff_fp));
    bench::writeTelemetry(telemetry, &stats);
    return 0;
}
