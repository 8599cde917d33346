/**
 * @file
 * /proc/<pid>/maps parser and record filter — the first two stages of the
 * LASERDETECT pipeline (Section 4.1).
 *
 * The filter classifies record PCs as application, library or other code
 * (spurious records with PCs outside the application and its libraries
 * are dropped) and recognizes thread-stack data addresses (ignored, as
 * stacks are unlikely to be shared between threads).
 *
 * It deliberately works from the rendered maps *text*, not from simulator
 * internals: the detector is a separate process in the paper and this is
 * the interface it actually has.
 *
 * Each entry's PC and data classes are resolved once, when the text is
 * parsed; a lookup is then one binary search and a field read, with no
 * path-string compares on the per-record path.
 */

#ifndef LASER_DETECT_MAPS_FILTER_H
#define LASER_DETECT_MAPS_FILTER_H

#include <cstdint>
#include <string>
#include <vector>

namespace laser::detect {

/** PC classification per the pipeline's first stage. */
enum class PcClass : std::uint8_t { Application, Library, Other };

/** Data-address classification per the pipeline's second stage. */
enum class DataClass : std::uint8_t {
    Stack,
    Heap,
    Globals,
    Kernel,
    Unmapped,
    Code,
};

/** Parsed view of one maps line, with its classes resolved. */
struct MapsEntry
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    bool executable = false;
    std::string path;
    /** Class of a PC inside this entry. */
    PcClass pcClass = PcClass::Other;
    /** Class of a (non-kernel) data address inside this entry. */
    DataClass dataClass = DataClass::Globals;
};

/** Parser + classifier over a /proc maps snapshot. */
class MapsFilter
{
  public:
    /** Parse the maps text; malformed lines are skipped. */
    explicit MapsFilter(const std::string &maps_text);

    /** Classify an instruction pointer. */
    PcClass classifyPc(std::uint64_t pc) const;

    /** Classify a data address. */
    DataClass classifyData(std::uint64_t addr) const;

    /** Parsed entries (for tests). */
    const std::vector<MapsEntry> &entries() const { return entries_; }

  private:
    const MapsEntry *find(std::uint64_t addr) const;

    std::vector<MapsEntry> entries_;
};

} // namespace laser::detect

#endif // LASER_DETECT_MAPS_FILTER_H
