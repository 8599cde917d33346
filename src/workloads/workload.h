/**
 * @file
 * Workload framework: the reproduction's Phoenix / Parsec / Splash2x
 * benchmark suites (Section 7).
 *
 * Each workload is an IR kernel that reproduces the *sharing structure*
 * of the original benchmark — who writes which bytes of which lines, how
 * allocation decides layout, how much synchronization runs — plus
 * ground-truth metadata: the known performance bugs (the database of
 * Section 7.1, assembled from this paper and its prior work), Sheriff
 * compatibility (Table 1 / Figure 14), and the manual-fix variant used
 * for Figures 11/14.
 *
 * A build's initial memory image is one byte buffer plus the runs of
 * consecutive addresses it fills, not an entry per initialized word:
 * histogram's input image is 416k bytes at scale 4. Only a simulation
 * needs the image. Re-analysis of a stored trace needs the program
 * alone, so WorkloadDef::buildProgram() returns exactly build()'s
 * program without synthesizing the image.
 */

#ifndef LASER_WORKLOADS_WORKLOAD_H
#define LASER_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.h"
#include "sim/machine.h"

namespace laser::workloads {

/** Source benchmark suite. */
enum class Suite : std::uint8_t { Phoenix, Parsec, Splash2x };

const char *suiteName(Suite suite);

/** Ground-truth contention type of a known bug. */
enum class BugType : std::uint8_t { FalseSharing, TrueSharing };

const char *bugTypeName(BugType type);

/** One entry of the known-performance-bug database. */
struct KnownBug
{
    /** Canonical "file:line" of the contending source code. */
    std::string location;
    BugType type = BugType::FalseSharing;
    std::string description;
    /**
     * Additional lines that are part of the same bug (the contending
     * loop spans several statements); reports matching any of these do
     * not count as false positives.
     */
    std::vector<std::string> relatedLocations;
};

/** Sheriff compatibility per Table 1 / Figure 14. */
enum class SheriffCompat : std::uint8_t {
    Works,           ///< runs with native inputs
    WorksSmallInput, ///< runs only with simlarge inputs (the * of Fig 14)
    Crash,           ///< runtime error ("x" in Table 1)
    Incompatible,    ///< unsupported pthreads/OpenMP ("i" in Table 1)
};

const char *sheriffCompatName(SheriffCompat compat);

/** Static description of one workload. */
struct WorkloadInfo
{
    std::string name;
    Suite suite = Suite::Phoenix;
    std::vector<KnownBug> bugs;
    SheriffCompat sheriff = SheriffCompat::Works;
    /**
     * Whether Sheriff-Detect's object-granularity sampling reports the
     * bug (encoded from Table 1/2; Sheriff's internal heuristics are out
     * of reproduction scope — see DESIGN.md).
     */
    bool sheriffDetectsBug = false;
    /** What Sheriff-Detect reports when it does (allocation site). */
    std::string sheriffReportLocation;
    /** Has a manual-fix variant (Figures 11/14). */
    bool hasManualFix = false;
};

/** Options for building one workload instance. */
struct BuildOptions
{
    /** Build the manually-fixed variant (padding/alignment/restructure). */
    bool manualFix = false;
    /**
     * Initial-heap-break shift in bytes; must match the machine's
     * MachineConfig::heapPerturbation (LASER attach shifts layout).
     */
    std::uint64_t heapPerturbation = 0;
    /** Thread count; must satisfy sim::validCoreCount(). */
    int numThreads = 4;
    /** Input-synthesis seed. */
    std::uint64_t inputSeed = 0x5eed;
    /**
     * Work scale factor (1.0 = default "native" input). The Sheriff
     * comparison uses smaller inputs for some workloads (Figure 14).
     * Must satisfy validScale().
     */
    double scale = 1.0;
};

/**
 * Largest BuildOptions::scale: four times the largest input the
 * harnesses use (4). It keeps every scaled iteration count far inside
 * int64_t.
 */
constexpr double kMaxScale = 16.0;

/** True for a usable scale: finite, > 0 and <= kMaxScale (NaN fails). */
constexpr bool
validScale(double scale)
{
    return scale > 0.0 && scale <= kMaxScale;
}

/**
 * Whether a builder synthesizes the initial memory image. No program
 * may depend on it: a builder emits the same code either way, and
 * input draws that feed only the image are skipped with it.
 */
enum class Image : std::uint8_t { Synthesize, Skip };

/** A built workload: program + initial memory image. */
struct WorkloadBuild
{
    isa::Program program;

    /** bytes[offset, offset + size) is the image from addr onwards. */
    struct Run
    {
        std::uint64_t addr = 0;
        std::uint64_t offset = 0;
        std::uint64_t size = 0;
    };
    /**
     * The initial memory image: every initialized byte in init order,
     * placed by runs of consecutive addresses. Runs may overlap; a
     * later run wins, as a later init did. Both are empty when the
     * build skipped the image.
     */
    std::vector<std::uint8_t> bytes;
    std::vector<Run> runs;

    /** Write the initial memory image into a machine, runs in order. */
    void
    applyTo(sim::Machine &m) const
    {
        for (const Run &r : runs)
            m.memory().writeBytes(r.addr, bytes.data() + r.offset, r.size);
    }
};

/** A registered workload: metadata + builder. */
struct WorkloadDef
{
    WorkloadInfo info;
    /** The suite's builder behind build() and buildProgram(). */
    WorkloadBuild (*builder)(const BuildOptions &, Image) = nullptr;

    /** Program plus initial memory image: what a simulation loads. */
    WorkloadBuild
    build(const BuildOptions &opt) const
    {
        return builder(opt, Image::Synthesize);
    }

    /**
     * Exactly build(opt).program, without synthesizing the initial
     * memory image: for callers that analyse a stored trace and never
     * run the program.
     */
    isa::Program
    buildProgram(const BuildOptions &opt) const
    {
        return builder(opt, Image::Skip).program;
    }
};

/** All 35 workload configurations, in Table 1 order. */
const std::vector<WorkloadDef> &allWorkloads();

/** Lookup by name; nullptr if unknown. */
const WorkloadDef *findWorkload(const std::string &name);

/** The nine workloads with known performance bugs (Table 2). */
std::vector<const WorkloadDef *> buggyWorkloads();

} // namespace laser::workloads

#endif // LASER_WORKLOADS_WORKLOAD_H
