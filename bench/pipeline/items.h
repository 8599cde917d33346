/**
 * @file
 * The four bench_pipeline workloads: their fixed item sets, the plain
 * (untraced) path through the library's top-level calls, the split-up
 * (traced) path through each module's public calls, and the checks that
 * run after the timed phase.
 *
 * An item is one capture, one corpus threshold sweep or one LASER run.
 * A pass runs every item of a workload once as a closed loop on one
 * pool: max(1, min(nproc, 4) - 1) workers plus the calling thread.
 * Every pass of a workload does identical work, so every pass — traced
 * or not — must produce the same output digest.
 */

#ifndef LASER_PIPELINE_ITEMS_H
#define LASER_PIPELINE_ITEMS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace laser::benchpipe {

enum class Kind { Capture, CaptureDragon, Reanalyze, Repair };

/** Kind for a workload name; false for an unknown name. */
bool parseKind(const std::string &name, Kind *out);
const char *kindName(Kind kind);

/** Pool workers; the calling thread also takes items. */
int poolWorkers();

/** FNV-1a, the output digest of items and passes. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }
    void
    add(const std::string &s)
    {
        add(s.size());
        for (unsigned char c : s) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** What one pass over a workload's items produced. */
struct PassResult
{
    double wallSeconds = 0.0; ///< the timed region only
    double cpuSeconds = 0.0;  ///< process user+sys over the same region
    std::vector<double> itemMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> errors;
};

/** Checks made once, after the timed phase. */
struct VerifyResult
{
    std::uint64_t checks = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> errors;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed preparation before the timed passes (repeatable). */
    virtual void setup() = 0;

    /** One pass over the items; @p traced takes the split-up path. */
    virtual PassResult runPass(bool traced) = 0;

    virtual VerifyResult verify() = 0;
};

/**
 * Size of a workload: replicas per program (and sweep rounds per
 * replica for Reanalyze). Probes use the smallest size.
 */
struct Size
{
    int replicas = 1;
    int rounds = 1;
};

/** The benchmark's size for @p kind. */
Size fullSize(Kind kind);

/**
 * Build a workload. Its inputs derive from @p seed only; @p work_dir
 * holds the re-analysis trace cache (the only files the benchmark
 * writes besides the optional span trace).
 */
std::unique_ptr<Workload> makeWorkload(Kind kind, std::uint64_t seed,
                                       Size size,
                                       const std::string &work_dir);

/**
 * The traced run's fixed probes of layers below the items: native runs
 * of the corpus (sim.native) and the two coherence backends fed a
 * seeded access stream shaped like the corpus (protocol.*).
 */
void probeSimAndProtocols(std::uint64_t seed);

} // namespace laser::benchpipe

#endif // LASER_PIPELINE_ITEMS_H
