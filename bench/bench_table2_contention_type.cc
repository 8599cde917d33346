/**
 * @file
 * Table 2 reproduction: contention type (true vs false sharing) reported
 * by LASERDETECT and Sheriff-Detect for the workloads with performance
 * bugs.
 *
 * Paper shape: LASER types most bugs correctly; linear_regression is
 * "unknown" (write-write records carry too little address signal);
 * Sheriff reports a type only for reverse_index.
 */

#include <cstdio>

#include "bench_common.h"

using namespace laser;

int
main()
{
    bench::banner("Contention type identification", "Table 2");
    obs::BenchReport telemetry("table2_contention_type");

    core::ExperimentRunner runner;
    TablePrinter table({"benchmark", "actual", "LASER (measured)",
                        "LASER (paper)", "Sheriff (measured)",
                        "Sheriff (paper)"});

    const std::map<std::string, std::pair<std::string, std::string>>
        paper = {
            {"bodytrack", {"TS", "x"}},
            {"dedup", {"TS", "i"}},
            {"histogram'", {"FS", "-"}},
            {"kmeans", {"TS", "i"}},
            {"linear_regression", {"unknown", "-"}},
            {"lu_ncb", {"FS", "x"}},
            {"reverse_index", {"FS", "FS"}},
            {"streamcluster", {"FS", "x"}},
            {"volrend", {"TS", "x"}},
        };

    int correct = 0, total = 0;
    obs::Json rows = obs::Json::array();
    for (const auto *w : workloads::buggyWorkloads()) {
        core::RunResult laser = runner.run(*w, core::Scheme::Laser);
        const detect::ContentionType reported =
            core::reportedTypeForBug(w->info, laser.detection);
        const std::string actual =
            workloads::bugTypeName(w->info.bugs[0].type);
        const std::string measured =
            detect::contentionTypeName(reported);
        ++total;
        if (measured == actual)
            ++correct;

        core::RunResult sh = runner.run(*w, core::Scheme::SheriffDetect);
        // A literal, not a std::string assigned from one: GCC 12's
        // -Wrestrict misjudges that assignment and warns spuriously.
        const char *sheriff;
        if (sh.crashed) {
            sheriff = w->info.sheriff ==
                              workloads::SheriffCompat::Incompatible
                          ? "i"
                          : "x";
        } else {
            sheriff = w->info.sheriffDetectsBug ? "FS" : "-";
        }

        auto it = paper.find(w->info.name);
        table.addRow({
            w->info.name,
            actual,
            measured,
            it != paper.end() ? it->second.first : "?",
            sheriff,
            it != paper.end() ? it->second.second : "?",
        });
        obs::Json r = obs::Json::object();
        r.set("benchmark", obs::Json(std::string(w->info.name)));
        r.set("actual", obs::Json(actual));
        r.set("laser", obs::Json(measured));
        r.set("sheriff", obs::Json(sheriff));
        rows.push(std::move(r));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nmeasured: %d/%d types match the ground-truth "
                "database (paper: 6/9, with linear_regression "
                "unclassifiable).\n",
                correct, total);

    telemetry.results()
        .set("correct", obs::Json(correct))
        .set("total", obs::Json(total))
        .set("rows", std::move(rows));
    bench::writeTelemetry(telemetry, nullptr);
    return 0;
}
