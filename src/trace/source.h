/**
 * @file
 * Pull-based record streaming: the cursor/source abstraction that lets
 * replay consume a trace's record stream without materializing it.
 *
 * A RecordCursor yields records one at a time in canonical (cycle)
 * order; a RecordSource hands out cursors over sub-ranges of the stream
 * — by global record index (how ParallelReplayer splits shards, so
 * sharded replay stays bit-identical to serial) or by cycle window (how
 * seek-style replay works). Two implementations exist: the trivial
 * MemoryRecordSource over an already-decoded record vector, and the
 * seekable trace::TraceFile (trace/trace_file.h) which decodes one
 * columnar block at a time, so a shard's working set is O(block), not
 * O(trace).
 *
 * The module keeps process-global accounting of decoded-but-unconsumed
 * records across all live cursors (bufferedRecordsLive()/Peak()); the
 * replay-memory regression test asserts the peak stays under
 * O(block x shards) where the materialize-everything path would hold
 * the whole trace.
 */

#ifndef LASER_TRACE_SOURCE_H
#define LASER_TRACE_SOURCE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/sink.h"
#include "pebs/record.h"
#include "trace/trace.h"

namespace laser::trace {

/** Records currently decoded into cursor block buffers, process-wide. */
std::size_t bufferedRecordsLive();
/** High-water mark of bufferedRecordsLive() since the last reset. */
std::size_t bufferedRecordsPeak();
/** Reset the peak to the current live count (test isolation). */
void resetBufferedRecordsPeak();

namespace detail {

/** Cursor implementations report their block buffers through these. */
void addBufferedRecords(std::size_t n);
void subBufferedRecords(std::size_t n);

} // namespace detail

/**
 * Single-pass pull iterator over a record stream. next() returns false
 * at end-of-stream *or* on a decode error — check status() after the
 * stream ends to tell the two apart (Ok means a clean end).
 */
class RecordCursor
{
  public:
    virtual ~RecordCursor() = default;

    /** Produce the next record; false at end-of-stream or error. */
    virtual bool next(pebs::PebsRecord *rec) = 0;

    /** Ok after a clean end; a typed error if decoding failed. */
    virtual TraceStatus status() const
    {
        return TraceStatus::Ok;
    }

    /**
     * Push every remaining record into @p sink; returns the count. The
     * default calls next() and onRecord() per record; a cursor over
     * decoded columns passes them on a run at a time (onColumns()).
     */
    virtual std::uint64_t drain(analysis::RecordSink &sink);
};

/** A record stream that can be cursored over sub-ranges. */
class RecordSource
{
  public:
    virtual ~RecordSource() = default;

    /** Total records in the stream. */
    virtual std::uint64_t recordCount() const = 0;

    /** Cursor over global record indices [first, end). */
    virtual std::unique_ptr<RecordCursor>
    cursorForRecords(std::uint64_t first, std::uint64_t end) const = 0;

    /**
     * Cursor over the half-open cycle window [begin, end). Requires the
     * stream to be in canonical cycle order (every Ok-parsed trace is).
     */
    virtual std::unique_ptr<RecordCursor>
    cursorForCycles(std::uint64_t begin, std::uint64_t end) const = 0;

    /** Cursor over the whole stream. */
    std::unique_ptr<RecordCursor>
    cursor() const
    {
        return cursorForRecords(0, recordCount());
    }
};

/**
 * RecordSource over an already-materialized record vector (non-owning;
 * the vector must outlive the source and its cursors). Cursors cost no
 * extra buffering, so this source does not touch the buffered-records
 * accounting.
 */
class MemoryRecordSource : public RecordSource
{
  public:
    explicit MemoryRecordSource(
        const std::vector<pebs::PebsRecord> &records)
        : records_(&records)
    {
    }

    std::uint64_t recordCount() const override { return records_->size(); }

    std::unique_ptr<RecordCursor>
    cursorForRecords(std::uint64_t first, std::uint64_t end) const override;

    std::unique_ptr<RecordCursor>
    cursorForCycles(std::uint64_t begin, std::uint64_t end) const override;

  private:
    const std::vector<pebs::PebsRecord> *records_;
};

} // namespace laser::trace

#endif // LASER_TRACE_SOURCE_H
