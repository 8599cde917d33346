/**
 * @file
 * The trace reader: verify-and-decode only the bytes a replay actually
 * touches. Every stored or captured trace is read back through
 * TraceFile, and its RecordCursor is the one record decoder.
 *
 * TraceFile::open() maps the file (openBytes() adopts an in-memory
 * image), validates the fixed header, reads the trailing index offset,
 * decodes and checksum-verifies the footer block index, parses the
 * config/results sections (verified against the index's meta checksum
 * and the header's config hash) — and stops. Record blocks are *not*
 * decoded and the whole-payload checksum is *not* recomputed; that is
 * the point. Cursors then decode blocks on demand:
 *
 *   - cursorForRecords(first, end) binary-searches the index for the
 *     blocks containing that global record range (how ParallelReplayer
 *     splits shards, so sharded replay stays bit-identical to serial);
 *   - cursorForCycles(begin, end) binary-searches the blocks' cycle
 *     ranges for the window and skips boundary records outside it;
 *
 * each verifying a block's wordHash checksum before trusting its bytes,
 * so every byte actually read is still integrity-checked, and checking
 * the decoded cycles against the block's index range and for
 * non-decreasing order (NonMonotonic otherwise). A cursor holds one
 * decoded block at a time (O(block) memory, reported through the
 * buffered-records accounting below) and latches a typed TraceStatus if
 * a block is corrupt mid-stream. payloadChecksumOk() adds the
 * whole-payload check for callers that want every byte verified before
 * a full replay (laser_trace replay does).
 *
 * Read volume is observable per cursor: RecordCursor::bytesRead() sums
 * the encoded bytes of the blocks that cursor decoded — the
 * windowed-replay acceptance checks are written against it.
 *
 * Only kTraceVersion files open; any other version is BadVersion.
 */

#ifndef LASER_TRACE_TRACE_FILE_H
#define LASER_TRACE_TRACE_FILE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sink.h"
#include "pebs/record.h"
#include "trace/columnar.h"
#include "trace/trace.h"

namespace laser::trace {

/**
 * Records currently decoded into cursor block buffers, process-wide.
 * The replay-memory regression test asserts the peak stays under
 * O(block x shards) where a materializing replay would hold the whole
 * trace.
 */
std::size_t bufferedRecordsLive();
/** High-water mark of bufferedRecordsLive() since the last reset. */
std::size_t bufferedRecordsPeak();
/** Reset the peak to the current live count (test isolation). */
void resetBufferedRecordsPeak();

class TraceFile;

/**
 * Single-pass pull iterator over a contiguous block range of an open
 * TraceFile, in canonical (cycle) order, decoding one block at a time.
 * Emits only records within the global record range [first, end) AND
 * the cycle window [begin, end); TraceFile's factories set the
 * dimension they don't filter on to [0, max].
 *
 * next() returns false at end-of-stream *or* on a decode error — check
 * status() after the stream ends to tell the two apart (Ok means a
 * clean end).
 */
class RecordCursor
{
  public:
    RecordCursor(const TraceFile *file, std::size_t first_block,
                 std::size_t end_block, std::uint64_t rec_first,
                 std::uint64_t rec_end, std::uint64_t cycle_begin,
                 std::uint64_t cycle_end);
    ~RecordCursor();
    RecordCursor(const RecordCursor &) = delete;
    RecordCursor &operator=(const RecordCursor &) = delete;

    /** Produce the next record; false at end-of-stream or error. */
    bool next(pebs::PebsRecord *rec);

    /**
     * Push every remaining record into @p sink, each block's in-window
     * records as one column slice (RecordSink::onColumns); returns the
     * count.
     */
    std::uint64_t drain(analysis::RecordSink &sink);

    /** Ok after a clean end; a typed error if decoding failed. */
    TraceStatus status() const { return status_; }

    /** Encoded bytes of the record blocks this cursor has decoded. */
    std::uint64_t bytesRead() const { return bytesRead_; }

  private:
    bool loadBlock();
    void unloadBlock();
    /** Decoded records [lo, hi) of the loaded block as columns. */
    analysis::RecordColumns columns(std::size_t lo, std::size_t hi) const;

    const TraceFile *file_;
    std::size_t block_;
    std::size_t endBlock_;
    std::uint64_t recFirst_;
    std::uint64_t recEnd_;
    std::uint64_t cycleBegin_;
    std::uint64_t cycleEnd_;
    std::vector<std::uint64_t> cols_[columnar::kColumnCount];
    std::size_t pos_ = 0;
    bool loaded_ = false;
    TraceStatus status_ = TraceStatus::Ok;
    std::uint64_t bytesRead_ = 0;
};

class TraceFile
{
  public:
    TraceFile() = default;
    ~TraceFile();
    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    /** Map @p path read-only and validate header + index + meta. */
    TraceStatus open(const std::string &path);

    /** Adopt a complete file image instead of mapping a file. */
    TraceStatus openBytes(std::vector<std::uint8_t> bytes);

    bool isOpen() const { return open_; }
    /** Detail message for the last non-Ok open ("" after Ok). */
    const std::string &error() const { return error_; }

    const TraceMeta &meta() const { return meta_; }
    const columnar::BlockIndex &index() const { return index_; }
    /** Stored config hash (== configHash(meta()) after an Ok open). */
    std::uint64_t storedConfigHash() const { return configHash_; }
    /** Total payload bytes (compressed size of all sections). */
    std::uint64_t payloadBytes() const { return payloadSize_; }
    /** Bytes of the encoded record blob alone. */
    std::uint64_t recordBlobBytes() const { return index_.blobBytes(); }

    /** Total records in the stream. */
    std::uint64_t recordCount() const { return index_.records; }

    /** Cursor over global record indices [first, end). */
    std::unique_ptr<RecordCursor>
    cursorForRecords(std::uint64_t first, std::uint64_t end) const;

    /** Cursor over the half-open cycle window [begin, end). */
    std::unique_ptr<RecordCursor>
    cursorForCycles(std::uint64_t begin, std::uint64_t end) const;

    /** Cursor over the whole stream. */
    std::unique_ptr<RecordCursor>
    cursor() const
    {
        return cursorForRecords(0, recordCount());
    }

    /**
     * Decode the whole file into a materialized Trace (meta copy + all
     * records). Block checksums cover every record byte; the
     * whole-payload checksum is payloadChecksumOk()'s.
     */
    TraceStatus readAll(Trace *out) const;

    /** Whether the trailer matches a checksum of the whole payload
     *  (false when not open). Reads every payload byte. */
    bool payloadChecksumOk() const;

  private:
    friend class RecordCursor;

    TraceStatus fail(TraceStatus status, std::string detail);
    TraceStatus validate();
    void unmap();

    /** Start of the payload within the mapped image. */
    const std::uint8_t *payload() const { return data_ + kTraceHeaderSize; }
    /** Start of the encoded record blob. */
    const std::uint8_t *blob() const { return payload() + metaSize_; }

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    void *map_ = nullptr; ///< non-null when data_ is an mmap
    std::vector<std::uint8_t> owned_;

    TraceMeta meta_;
    columnar::BlockIndex index_;
    std::uint64_t configHash_ = 0;
    std::size_t metaSize_ = 0;
    std::uint64_t payloadSize_ = 0;
    std::string error_;
    bool open_ = false;
};

} // namespace laser::trace

#endif // LASER_TRACE_TRACE_FILE_H
