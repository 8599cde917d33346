/**
 * @file
 * End-to-end scenario on the paper's flagship bug: linear_regression's
 * falsely-shared lreg_args array (Figure 2). Runs the full LASER system
 * via the experiment harness, prints the detection report, the online
 * repair outcome and the manual-fix comparison (Figure 11's 16.9x).
 *
 *   ./build/detect_and_repair [workload]
 */

#include <cstdio>
#include <string>

#include "core/accuracy.h"
#include "core/experiment.h"
#include "util/table.h"

using namespace laser;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "linear_regression";
    const auto *w = workloads::findWorkload(name);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 1;
    }

    core::ExperimentRunner runner;
    core::RunResult native = runner.run(*w, core::Scheme::Native);
    core::RunResult laser = runner.run(*w, core::Scheme::Laser);
    core::RunResult fixed =
        w->info.hasManualFix ? runner.run(*w, core::Scheme::ManualFix)
                             : core::RunResult{};

    std::printf("== %s (%s) ==\n", w->info.name.c_str(),
                workloads::suiteName(w->info.suite));
    for (const auto &bug : w->info.bugs) {
        std::printf("known bug: %s [%s] — %s\n", bug.location.c_str(),
                    workloads::bugTypeName(bug.type),
                    bug.description.c_str());
    }

    std::printf("\n== detection report (top lines) ==\n");
    TablePrinter t({"location", "HITM/s", "type"});
    std::size_t shown = 0;
    for (const auto &line : laser.detection.lines) {
        if (shown++ >= 6)
            break;
        t.addRow({line.location, fmtDouble(line.hitmRate, 0),
                  detect::contentionTypeName(line.type)});
    }
    std::fputs(t.render().c_str(), stdout);

    std::printf("\n== outcome ==\n");
    std::printf("native runtime:         %llu cycles\n",
                (unsigned long long)native.runtimeCycles);
    std::printf("under LASER:            %llu cycles (%.2fx)\n",
                (unsigned long long)laser.runtimeCycles,
                double(laser.runtimeCycles) /
                    double(native.runtimeCycles));
    if (laser.repairApplied) {
        std::printf("  online repair fired at %.0f%% of the run "
                    "(plan: %zu ops, est %.0f stores/flush)\n",
                    laser.repairTriggerFraction * 100,
                    laser.plan.instrumentedOps.size(),
                    laser.plan.estRatio());
    } else if (laser.detection.repairRequested) {
        std::printf("  repair requested but declined: %s\n",
                    laser.plan.reason.c_str());
    }
    if (w->info.hasManualFix) {
        std::printf("manual fix (guided by the report): %llu cycles "
                    "(%.1fx speedup)\n",
                    (unsigned long long)fixed.runtimeCycles,
                    double(native.runtimeCycles) /
                        double(fixed.runtimeCycles));
    }
    return 0;
}
