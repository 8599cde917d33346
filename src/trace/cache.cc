#include "trace/cache.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace laser::trace {

namespace fs = std::filesystem;

TraceStatus
readTraceHeader(const std::string &path, std::uint64_t *config_hash)
{
    *config_hash = 0;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return TraceStatus::IoError;
    std::uint8_t header[kTraceHeaderSize];
    const std::size_t n = std::fread(header, 1, sizeof header, f);
    std::fclose(f);
    detail::HeaderInfo info;
    std::string err;
    const TraceStatus status =
        detail::parseTraceHeader(header, n, &info, &err);
    if (status != TraceStatus::Ok)
        return status;
    *config_hash = info.configHash;
    return TraceStatus::Ok;
}

std::vector<CacheEntry>
listTraceCache(const std::string &dir)
{
    std::vector<CacheEntry> entries;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir, ec)) {
        std::error_code entry_ec;
        if (!de.is_regular_file(entry_ec) || entry_ec)
            continue;
        if (de.path().extension() != kTraceExtension)
            continue;
        CacheEntry entry;
        entry.path = de.path().string();
        // A concurrent gc may delete the file between iteration and
        // stat; skip vanished entries rather than record garbage sizes
        // (file_size reports uintmax_t(-1) on error).
        entry.bytes = de.file_size(entry_ec);
        if (entry_ec)
            continue;
        entry.mtime = de.last_write_time(entry_ec);
        if (entry_ec)
            continue;
        entry.status = readTraceHeader(entry.path, &entry.configHash);
        entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(),
              [](const CacheEntry &a, const CacheEntry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path; // deterministic tie-break
              });
    return entries;
}

CacheGcResult
gcTraceCacheFrom(const std::vector<CacheEntry> &entries,
                 std::uint64_t max_bytes)
{
    CacheGcResult result;
    result.scanned = entries.size();
    for (const CacheEntry &entry : entries)
        result.bytesBefore += entry.bytes;
    result.bytesAfter = result.bytesBefore;

    // Oldest-first (the list is already in eviction order): delete until
    // the budget holds.
    static obs::Counter &evictions =
        obs::Registry::global().counter("trace.cache.gc_evictions");
    static obs::Counter &evicted_bytes =
        obs::Registry::global().counter("trace.cache.gc_bytes_evicted");
    for (const CacheEntry &entry : entries) {
        if (result.bytesAfter <= max_bytes)
            break;
        std::error_code ec;
        // Disk-hit race: a sweep refreshes mtime on every cache hit. If
        // this entry's mtime moved since the listing, it was just used
        // and is no longer the LRU victim the listing claimed — spare
        // it and keep its bytes on the books.
        const fs::file_time_type now_mtime =
            fs::last_write_time(entry.path, ec);
        if (ec) {
            // Already gone (concurrent gc or cache wipe): its bytes no
            // longer occupy the directory, but nothing was evicted here.
            ++result.vanished;
            result.bytesAfter -= entry.bytes;
            continue;
        }
        if (now_mtime != entry.mtime) {
            ++result.spared;
            continue;
        }
        if (fs::remove(entry.path, ec) && !ec) {
            ++result.evicted;
            result.bytesAfter -= entry.bytes;
            evictions.inc();
            evicted_bytes.inc(entry.bytes);
        } else if (!fs::exists(entry.path)) {
            // Removed by someone else between the mtime check and ours.
            ++result.vanished;
            result.bytesAfter -= entry.bytes;
        }
    }
    return result;
}

CacheGcResult
gcTraceCache(const std::string &dir, std::uint64_t max_bytes)
{
    return gcTraceCacheFrom(listTraceCache(dir), max_bytes);
}

} // namespace laser::trace
