/**
 * @file
 * Triage scenario: true sharing cannot be repaired by padding or by the
 * SSB — the program must be restructured. This example runs the paper's
 * two novel true-sharing finds (dedup's single-lock queue, bodytrack's
 * ticket dispenser) plus kmeans, shows how LASERDETECT types the
 * contention, and why that matters for triage (Section 7.4.2).
 *
 *   ./build/true_sharing_triage
 */

#include <cstdio>

#include "core/accuracy.h"
#include "core/experiment.h"
#include "util/table.h"

using namespace laser;

int
main()
{
    core::ExperimentRunner runner;
    const char *names[] = {"dedup", "bodytrack", "kmeans", "volrend"};

    TablePrinter t({"workload", "hot line", "reported type", "repair?",
                    "manual-fix speedup", "triage"});
    for (const char *name : names) {
        const auto *w = workloads::findWorkload(name);
        core::RunResult native = runner.run(*w, core::Scheme::Native);
        core::RunResult laser = runner.run(*w, core::Scheme::Laser);

        std::string hot = "-", type = "-";
        if (!laser.detection.lines.empty()) {
            hot = laser.detection.lines[0].location;
            type = detect::contentionTypeName(
                core::reportedTypeForBug(w->info, laser.detection));
        }
        std::string repair = "not triggered";
        if (laser.repairApplied)
            repair = "applied";
        else if (laser.detection.repairRequested)
            repair = "declined";

        std::string fix_speedup = "-";
        std::string triage = "restructure the sharing";
        if (w->info.hasManualFix) {
            core::RunResult fixed =
                runner.run(*w, core::Scheme::ManualFix);
            fix_speedup = fmtTimes(double(native.runtimeCycles) /
                                   double(fixed.runtimeCycles));
        }
        if (std::string(name) == "dedup")
            triage = "replace single-lock queue (lock-free)";
        else if (std::string(name) == "bodytrack")
            triage = "fundamental to load balancing; keep";
        else if (std::string(name) == "kmeans")
            triage = "cache flag on stack; sums on worker stack";
        else if (std::string(name) == "volrend")
            triage = "batch counter increments";

        t.addRow({name, hot, type, repair, fix_speedup, triage});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf(
        "\nTrue sharing is typed so developers do not waste time padding "
        "data that is genuinely shared — and so LASERREPAIR never tries "
        "to \"fix\" it (Section 4.3: the type gates automatic repair).\n");
    return 0;
}
