#include "analysis/sink.h"

#include <algorithm>

namespace laser::analysis {

void
RecordSink::onColumns(const RecordColumns &cols)
{
    for (std::size_t i = 0; i < cols.size; ++i)
        onRecord(cols.record(i));
}

void
drain(const std::vector<pebs::PebsRecord> &records, RecordSink &sink)
{
    for (const pebs::PebsRecord &rec : records)
        sink.onRecord(rec);
}

void
sortByCycle(std::vector<pebs::PebsRecord> *records)
{
    std::stable_sort(records->begin(), records->end(),
                     [](const pebs::PebsRecord &a,
                        const pebs::PebsRecord &b) {
                         return a.cycle < b.cycle;
                     });
}

void
drainSorted(const std::vector<pebs::PebsRecord> &records, RecordSink &sink)
{
    // Stored traces are already canonical (the reader enforces it);
    // skip the copy + sort for them and pay it only for raw
    // driver-delivery streams.
    if (std::is_sorted(records.begin(), records.end(),
                       [](const pebs::PebsRecord &a,
                          const pebs::PebsRecord &b) {
                           return a.cycle < b.cycle;
                       })) {
        drain(records, sink);
        return;
    }
    std::vector<pebs::PebsRecord> ordered(records);
    sortByCycle(&ordered);
    drain(ordered, sink);
}

} // namespace laser::analysis
