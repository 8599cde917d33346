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

} // namespace laser::analysis
