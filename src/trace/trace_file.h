/**
 * @file
 * Seekable trace reader: verify-and-decode only the bytes a replay
 * actually touches. Also the one record decoder: TraceReader's full
 * parse is openBytes() + readAll() plus the whole-payload checksum.
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
 *     blocks containing that global record range;
 *   - cursorForCycles(begin, end) binary-searches the blocks' cycle
 *     ranges for the window and skips boundary records outside it;
 *
 * each verifying a block's FNV-1a checksum before trusting its bytes,
 * so every byte actually read is still integrity-checked, and checking
 * the decoded cycles against the block's index range and for
 * non-decreasing order (NonMonotonic otherwise). A cursor
 * holds one decoded block at a time (O(block) memory, reported through
 * the trace/source.h buffered-records accounting) and latches a typed
 * TraceStatus if a block is corrupt mid-stream.
 *
 * Read volume is observable via the obs counters trace.file.bytes_read
 * (header + meta + index on open, plus each decoded block's encoded
 * bytes) and trace.file.blocks_decoded — the windowed-replay acceptance
 * checks are written against them.
 *
 * Only kTraceVersion files open; any other version is BadVersion.
 */

#ifndef LASER_TRACE_TRACE_FILE_H
#define LASER_TRACE_TRACE_FILE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/columnar.h"
#include "trace/source.h"
#include "trace/trace.h"

namespace laser::trace {

class TraceFile : public RecordSource
{
  public:
    TraceFile() = default;
    ~TraceFile() override;
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

    // RecordSource
    std::uint64_t recordCount() const override { return index_.records; }
    std::unique_ptr<RecordCursor>
    cursorForRecords(std::uint64_t first, std::uint64_t end) const override;
    std::unique_ptr<RecordCursor>
    cursorForCycles(std::uint64_t begin, std::uint64_t end) const override;

    /**
     * Decode the whole file into a materialized Trace (meta copy + all
     * records). Equivalent to a full TraceReader parse minus the
     * whole-payload checksum (block checksums cover the same bytes).
     */
    TraceStatus readAll(Trace *out) const;

    /** Whether the trailer matches a checksum of the whole payload
     *  (false when not open). Reads every payload byte. */
    bool payloadChecksumOk() const;

  private:
    friend class FileCursor;

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
