/**
 * @file
 * Trace-cache maintenance: inventory and size budgeting for long-lived
 * cache directories.
 *
 * A sweep cache grows without bound as configurations churn (every
 * config-hash key is a new <hash>.ltrace file), so production cache
 * directories need eviction. Policy is mtime-LRU: the sweep runner
 * touches a file's mtime on every disk hit, so last-modified order is
 * last-used order, and gcTraceCache() deletes oldest-first until the
 * directory fits the byte budget.
 *
 * Listing reads only each file's fixed-size header (magic, version,
 * config hash) — no payload decode — so inventorying a multi-gigabyte
 * cache stays cheap. A file from another format version lists as
 * BadVersion ("version mismatch"); a sweep never hits it (the config
 * hash is version-scoped), and gc evicts it like any other LRU entry.
 *
 * Gc runs concurrently with sweeps using the same directory, so every
 * step tolerates the races that implies: files may vanish between
 * listing and deletion (another gc, or a cache wipe), and a file's
 * mtime may be refreshed by a disk hit after this gc listed it —
 * deletion re-checks the mtime and spares the entry, so a
 * just-used trace is never evicted on stale listing data.
 */

#ifndef LASER_TRACE_CACHE_H
#define LASER_TRACE_CACHE_H

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace laser::trace {

/** One cache file's inventory row. */
struct CacheEntry
{
    std::string path;
    std::uint64_t bytes = 0;
    std::filesystem::file_time_type mtime{};
    /** Config hash from the header (0 when the header is unreadable). */
    std::uint64_t configHash = 0;
    /** Header status: Ok means magic/version/endianness check out. */
    TraceStatus status = TraceStatus::Ok;
};

/**
 * Read just the header of @p path: magic, version, endianness and the
 * stored config hash. Returns the same typed statuses as a full parse
 * would for those fields (any version but kTraceVersion is BadVersion).
 */
TraceStatus readTraceHeader(const std::string &path,
                            std::uint64_t *config_hash);

/**
 * Inventory @p dir's trace files (*.ltrace), oldest mtime first —
 * i.e. first-to-evict first. Missing directories yield an empty list;
 * files that vanish mid-listing (concurrent gc) are skipped rather
 * than reported with garbage sizes.
 */
[[nodiscard]] std::vector<CacheEntry> listTraceCache(
    const std::string &dir);

/** Outcome of one gc pass. */
struct CacheGcResult
{
    std::size_t scanned = 0;
    std::size_t evicted = 0;
    /** Entries skipped because their mtime changed after listing (a
     *  concurrent disk hit marked them recently-used). */
    std::size_t spared = 0;
    /** Entries already gone by deletion time (concurrent gc/wipe). */
    std::size_t vanished = 0;
    std::uint64_t bytesBefore = 0;
    std::uint64_t bytesAfter = 0;
};

/**
 * Evict oldest-mtime trace files from @p dir until the remaining
 * *.ltrace bytes fit @p max_bytes. Files that fail to delete are kept
 * and counted in bytesAfter (a concurrent sweep may hold them open on
 * some platforms; eviction is best-effort, correctness never depends on
 * it — a missing cache entry is just a re-simulation). An entry whose
 * mtime moved forward since the listing was taken is spared: a
 * concurrent disk hit just used it, so it is no longer the LRU victim
 * the listing claimed.
 */
[[nodiscard]] CacheGcResult gcTraceCache(const std::string &dir,
                                         std::uint64_t max_bytes);

/**
 * The gc pass over a caller-supplied listing (gcTraceCache() is this
 * over listTraceCache(dir)). Exposed so the listing-vs-deletion race
 * window can be exercised deterministically in tests: mutate the
 * directory after building @p entries, then run the pass.
 */
[[nodiscard]] CacheGcResult gcTraceCacheFrom(
    const std::vector<CacheEntry> &entries, std::uint64_t max_bytes);

} // namespace laser::trace

#endif // LASER_TRACE_CACHE_H
