/**
 * @file
 * Minimal tour of the trace subsystem: capture one monitored run, write
 * it to disk, open it back, digest its record stream once and report at
 * two different rate thresholds without re-simulating — the "adjust
 * thresholds offline" workflow of Section 4.
 */

#include <cstdio>

#include "trace/capture.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "workloads/workload.h"

using namespace laser;

int
main()
{
    const workloads::WorkloadDef *workload =
        workloads::findWorkload("linear_regression");

    // 1. Capture: the only expensive step (runs the machine simulator).
    const trace::Trace captured = trace::captureTrace(*workload);
    std::printf("captured %zu records in %llu cycles\n",
                captured.records.size(),
                (unsigned long long)captured.meta.runtimeCycles);

    // 2. Persist + reopen (round-trips byte-exactly). Opening reads only
    //    the header, metadata and block index; replay decodes blocks.
    const std::string path = "linear_regression_demo.ltrace";
    if (trace::writeTraceFile(captured, path) != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "write failed\n");
        return 1;
    }
    trace::TraceFile loaded;
    if (loaded.open(path) != trace::TraceStatus::Ok) {
        std::fprintf(stderr, "read failed: %s\n", loaded.error().c_str());
        return 1;
    }

    // 3. Digest once, report at two thresholds; no simulation happens.
    trace::TraceReplayer replayer(loaded.meta(), loaded);
    const trace::ParallelReplayer digest(replayer);
    for (double threshold : {1000.0, 16000.0}) {
        detect::DetectorConfig cfg;
        cfg.rateThreshold = threshold;
        cfg.sav = loaded.meta().pebs.sav;
        const detect::DetectionReport report = digest.replay(cfg);
        std::printf("threshold %6.0f HITMs/sec -> %zu reported lines\n",
                    threshold, report.lines.size());
    }
    std::remove(path.c_str());
    return 0;
}
