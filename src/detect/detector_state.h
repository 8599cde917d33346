/**
 * @file
 * Mergeable detector state: everything LASERDETECT accumulates while
 * digesting a record stream, factored so that per-time-window shards of
 * one stream can be digested independently and merged back into exactly
 * the state a serial pass would have produced.
 *
 * Three observations make this work:
 *
 *  1. Stages 1-5 of the pipeline (PC/stack filtering, per-PC
 *     aggregation, load/store-set decode, the cache-line model) never
 *     read the DetectorConfig. The digest is therefore a pure,
 *     config-independent function of the stream — one digest serves
 *     every threshold/SAV/repair configuration (report-many).
 *
 *  2. The cache-line model is a per-line *last-access* model: after the
 *     first access to a line, a shard's per-line state is identical to
 *     the serial pass's. The only divergence is the classification of
 *     each line's first access within a shard, which the serial pass
 *     would have classified against the previous shard's last access.
 *     DetectorState records that first access (mask, write-ness, PC,
 *     rate-event index), and mergeFrom() reclassifies it — restoring
 *     per-PC and per-window TS/FS counts to their exact serial values.
 *
 *  3. The online repair trigger (Section 4.4) is a sequential scan over
 *     (cycle, outcome) pairs of the filtered stream. Shards collect
 *     those pairs as RateEvents; after the window-order merge patches
 *     outcomes, the merged stream is summarised into RateWindows and
 *     scanRateWindows() runs the serial state machine window by window,
 *     preserving online repair-trigger semantics. A window's boundaries
 *     depend only on the event cycles and rateCheckInterval — never on
 *     the thresholds — so one summary serves every configuration with
 *     that interval, and each extra configuration costs O(windows), not
 *     a scan over every event.
 *
 * The per-line table is a util/flat_table.h FlatTable, keyed by line
 * number (data address >> lineShift). One entry is touched per memory
 * record, and one sweep holds tens of thousands of lines across its
 * digests, so a flat slot array beats a node per line both per access
 * and when the digests are freed.
 */

#ifndef LASER_DETECT_DETECTOR_STATE_H
#define LASER_DETECT_DETECTOR_STATE_H

#include <cstdint>
#include <vector>

#include "detect/cacheline_model.h"
#include "detect/types.h"
#include "util/flat_table.h"

namespace laser::detect {

/**
 * One filtered record's contribution to the rate scan: its cycle and
 * its sharing classification. Collected in shard digests; the serial
 * streaming pipeline runs the scan inline instead of collecting.
 */
struct RateEvent
{
    std::uint64_t cycle = 0;
    SharingOutcome outcome = SharingOutcome::None;
};

/** The accumulated digest of (a shard of) a record stream. */
struct DetectorState
{
    struct PcStats
    {
        std::uint64_t records = 0;
        std::uint64_t ts = 0;
        std::uint64_t fs = 0;
    };

    /** Per-cache-line model state plus the merge fix-up bookkeeping. */
    struct LineState
    {
        std::uint64_t lastMask = 0;
        /** First access to this line within this state's stream span. */
        std::uint64_t firstMask = 0;
        /** Index of that access's RateEvent (valid when collected). */
        std::uint64_t firstEvent = 0;
        std::uint32_t firstPc = 0;
        bool firstWrite = false;
        bool lastWrite = false;
    };

    /**
     * Per-instruction stats, indexed by instruction index; an entry
     * with records == 0 is a PC this span never touched.
     */
    std::vector<PcStats> pcStats;
    /**
     * Keyed by line number. No key can be FlatTable's kEmptyKey (all
     * ones): the line size is at least 8 bytes, so lineShift >= 3 and
     * every line number is below 2^61.
     */
    FlatTable<LineState> lines;
    std::uint64_t totalRecords = 0;
    std::uint64_t droppedPc = 0;
    std::uint64_t droppedStack = 0;
    std::uint64_t tsEvents = 0;
    std::uint64_t fsEvents = 0;
    /** (cycle, outcome) per filtered record, in stream order. */
    std::vector<RateEvent> rateEvents;

    /**
     * Absorb @p next, the digest of the records immediately following
     * this state's span. Reclassifies each line's first access in
     * @p next against this state's last access to the same line
     * (patching @p next's counters and rate events in place first),
     * then folds counters and concatenates rate events. Associative, so
     * shards may be merged pairwise or left-to-right — but always in
     * stream (time-window) order.
     */
    void mergeFrom(DetectorState &&next);
};

/** The Section 4.4 online repair-trigger state machine. */
struct RateScanState
{
    std::uint64_t windowStart = 0;
    std::uint64_t windowRecords = 0;
    std::uint64_t windowFs = 0;
    std::uint64_t windowTs = 0;
    bool repairRequested = false;
    std::uint64_t repairTriggerCycle = 0;

    /** Account one filtered record, then run the periodic rate check. */
    void step(std::uint64_t cycle, SharingOutcome outcome,
              const DetectorConfig &cfg);
};

/**
 * The rate-check windows of one event stream at one rateCheckInterval:
 * everything the repair-trigger scan reads, without the per-event
 * detail. Threshold-free, so built once and scanned per configuration.
 */
struct RateWindows
{
    /** One closed window, with counts cumulative from the stream start. */
    struct Window
    {
        std::uint64_t start = 0;
        /** Cycle of the event whose arrival closed the window. */
        std::uint64_t close = 0;
        /** Records/TS/FS from the stream start through that event. */
        std::uint64_t records = 0;
        std::uint64_t ts = 0;
        std::uint64_t fs = 0;
    };

    std::uint64_t interval = 0;
    std::vector<Window> windows;
    /** Stream totals (the last window's counts plus the open window's). */
    std::uint64_t records = 0;
    std::uint64_t ts = 0;
    std::uint64_t fs = 0;
};

/**
 * Split @p events into rate-check windows of @p interval cycles: a
 * window closes at the first event with cycle >= start + interval, and
 * the next one starts at that event's cycle. One O(events) pass.
 */
RateWindows summarizeRateEvents(const std::vector<RateEvent> &events,
                                std::uint64_t interval);

/**
 * Run the online repair-trigger scan over @p windows: the same trigger
 * decision, epoch samples and final state as RateScanState::step per
 * event at windows.interval, in O(windows up to the trigger). Reads
 * every @p cfg field except rateCheckInterval.
 */
RateScanState scanRateWindows(const RateWindows &windows,
                              const DetectorConfig &cfg);

/**
 * Replay the online repair-trigger scan over a merged event stream —
 * the sequential merge-time pass that gives sharded replay the exact
 * serial repair semantics. Summarises, then scans the windows.
 */
RateScanState scanRateEvents(const std::vector<RateEvent> &events,
                             const DetectorConfig &cfg);

} // namespace laser::detect

#endif // LASER_DETECT_DETECTOR_STATE_H
