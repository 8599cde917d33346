#include "trace/trace_file.h"

#include <algorithm>
#include <atomic>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/wire.h"

namespace laser::trace {

namespace {

std::atomic<std::size_t> g_bufferedLive{0};
std::atomic<std::size_t> g_bufferedPeak{0};

void
addBufferedRecords(std::size_t n)
{
    const std::size_t live =
        g_bufferedLive.fetch_add(n, std::memory_order_relaxed) + n;
    std::size_t peak = g_bufferedPeak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_bufferedPeak.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
}

void
subBufferedRecords(std::size_t n)
{
    g_bufferedLive.fetch_sub(n, std::memory_order_relaxed);
}

} // namespace

std::size_t
bufferedRecordsLive()
{
    return g_bufferedLive.load(std::memory_order_relaxed);
}

std::size_t
bufferedRecordsPeak()
{
    return g_bufferedPeak.load(std::memory_order_relaxed);
}

void
resetBufferedRecordsPeak()
{
    g_bufferedPeak.store(g_bufferedLive.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// RecordCursor
// ---------------------------------------------------------------------

RecordCursor::RecordCursor(const TraceFile *file, std::size_t first_block,
                           std::size_t end_block, std::uint64_t rec_first,
                           std::uint64_t rec_end, std::uint64_t cycle_begin,
                           std::uint64_t cycle_end)
    : file_(file), block_(first_block), endBlock_(end_block),
      recFirst_(rec_first), recEnd_(rec_end), cycleBegin_(cycle_begin),
      cycleEnd_(cycle_end)
{
}

RecordCursor::~RecordCursor()
{
    unloadBlock();
}

bool
RecordCursor::next(pebs::PebsRecord *rec)
{
    while (status_ == TraceStatus::Ok) {
        if (!loaded_) {
            if (block_ >= endBlock_ || !loadBlock())
                return false;
        }
        const columnar::BlockInfo &b = file_->index_.blocks[block_];
        const std::vector<std::uint64_t> &cycles = cols_[columnar::kColCycle];
        while (pos_ < b.records) {
            const std::uint64_t global = b.firstRecord + pos_;
            if (global >= recEnd_)
                return false;
            const std::uint64_t cycle = cycles[pos_];
            if (cycle >= cycleEnd_)
                return false; // sorted: nothing later can match
            if (global < recFirst_ || cycle < cycleBegin_) {
                ++pos_;
                continue;
            }
            *rec = columns(pos_, pos_ + 1).record(0);
            ++pos_;
            return true;
        }
        unloadBlock();
        ++block_;
    }
    return false;
}

/*
 * Within a verified block record indices rise and cycles never fall, so
 * the records next() would return from the block form one contiguous
 * run, found by two binary searches per bound.
 */
std::uint64_t
RecordCursor::drain(analysis::RecordSink &sink)
{
    std::uint64_t delivered = 0;
    while (status_ == TraceStatus::Ok) {
        if (!loaded_) {
            if (block_ >= endBlock_ || !loadBlock())
                break;
        }
        const columnar::BlockInfo &b = file_->index_.blocks[block_];
        const std::size_t records = static_cast<std::size_t>(b.records);
        const auto cycles = cols_[columnar::kColCycle].begin();
        const auto block_pos = [&](std::uint64_t global) {
            return static_cast<std::size_t>(std::clamp<std::uint64_t>(
                global > b.firstRecord ? global - b.firstRecord : 0, pos_,
                records));
        };
        // [lo, hi): the records next() would return from pos_ on;
        // hi is the first one past the record or cycle window.
        const std::size_t hi = static_cast<std::size_t>(
            std::lower_bound(cycles + pos_, cycles + block_pos(recEnd_),
                             cycleEnd_) -
            cycles);
        const std::size_t lo = static_cast<std::size_t>(
            std::lower_bound(cycles + std::min(block_pos(recFirst_), hi),
                             cycles + hi, cycleBegin_) -
            cycles);
        if (lo < hi) {
            sink.onColumns(columns(lo, hi));
            delivered += hi - lo;
        }
        pos_ = hi;
        if (hi < records)
            break; // past the window: nothing later can match
        unloadBlock();
        ++block_;
    }
    return delivered;
}

bool
RecordCursor::loadBlock()
{
    const columnar::BlockInfo &b = file_->index_.blocks[block_];
    const std::uint8_t *bp = file_->blob() + b.blobOffset;
    const std::size_t bytes = static_cast<std::size_t>(b.blobBytes());
    if (wire::wordHash(bp, bytes) != b.checksum) {
        status_ = TraceStatus::Corrupt;
        return false;
    }
    for (std::size_t c = 0; c < columnar::kColumnCount; ++c) {
        if (!columnar::decodeColumn(
                c, bp + b.columnOffset(c),
                static_cast<std::size_t>(b.columnBytes[c]),
                static_cast<std::size_t>(b.records), &cols_[c])) {
            status_ = TraceStatus::Corrupt;
            return false;
        }
    }
    // The index's cycle range must describe the records it points at,
    // or window selection would silently skip/include records.
    const std::vector<std::uint64_t> &cycles = cols_[columnar::kColCycle];
    if (cycles.front() != b.firstCycle || cycles.back() != b.lastCycle) {
        status_ = TraceStatus::Corrupt;
        return false;
    }
    // Window cursors stop at the first record past the window, so a
    // cycle that goes backwards inside a block would hide records.
    if (!std::is_sorted(cycles.begin(), cycles.end())) {
        status_ = TraceStatus::NonMonotonic;
        return false;
    }
    bytesRead_ += bytes;
    addBufferedRecords(static_cast<std::size_t>(b.records));
    loaded_ = true;
    pos_ = 0;
    return true;
}

analysis::RecordColumns
RecordCursor::columns(std::size_t lo, std::size_t hi) const
{
    analysis::RecordColumns c;
    c.pc = cols_[columnar::kColPc].data() + lo;
    c.dataAddr = cols_[columnar::kColAddr].data() + lo;
    c.core = cols_[columnar::kColCore].data() + lo;
    c.cycle = cols_[columnar::kColCycle].data() + lo;
    c.size = hi - lo;
    return c;
}

void
RecordCursor::unloadBlock()
{
    if (!loaded_)
        return;
    subBufferedRecords(
        static_cast<std::size_t>(file_->index_.blocks[block_].records));
    for (auto &col : cols_)
        col.clear();
    loaded_ = false;
}

// ---------------------------------------------------------------------
// TraceFile
// ---------------------------------------------------------------------

TraceFile::~TraceFile()
{
    unmap();
}

void
TraceFile::unmap()
{
    if (map_) {
        ::munmap(map_, size_);
        map_ = nullptr;
    }
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = nullptr;
    size_ = 0;
}

TraceStatus
TraceFile::fail(TraceStatus status, std::string detail)
{
    unmap();
    meta_ = {};
    index_ = {};
    configHash_ = 0;
    metaSize_ = 0;
    payloadSize_ = 0;
    open_ = false;
    error_ = std::move(detail);
    return status;
}

TraceStatus
TraceFile::open(const std::string &path)
{
    unmap();
    open_ = false;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(TraceStatus::IoError, "cannot open " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail(TraceStatus::IoError, "cannot stat " + path);
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        ::close(fd);
        return fail(TraceStatus::Truncated, path + " is empty");
    }
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return fail(TraceStatus::IoError, "cannot map " + path);
    map_ = map;
    data_ = static_cast<const std::uint8_t *>(map);
    size_ = size;
    return validate();
}

TraceStatus
TraceFile::openBytes(std::vector<std::uint8_t> bytes)
{
    unmap();
    open_ = false;
    owned_ = std::move(bytes);
    data_ = owned_.data();
    size_ = owned_.size();
    return validate();
}

TraceStatus
TraceFile::validate()
{
    error_.clear();

    detail::HeaderInfo header;
    std::string err;
    const TraceStatus header_status =
        trace::detail::parseTraceHeader(data_, size_, &header, &err);
    if (header_status != TraceStatus::Ok)
        return fail(header_status, std::move(err));
    if (size_ < kTraceHeaderSize + kTraceTrailerSize)
        return fail(TraceStatus::Truncated,
                    "file shorter than header + trailer");
    if (header.payloadSize > size_ - kTraceHeaderSize - kTraceTrailerSize)
        return fail(TraceStatus::Truncated,
                    "payload declares " +
                        std::to_string(header.payloadSize) +
                        " bytes but only " +
                        std::to_string(size_ - kTraceHeaderSize -
                                       kTraceTrailerSize) +
                        " present");
    if (header.payloadSize < size_ - kTraceHeaderSize - kTraceTrailerSize)
        return fail(TraceStatus::Corrupt,
                    "trailing bytes after payload + checksum");
    payloadSize_ = header.payloadSize;
    configHash_ = header.configHash;

    const std::size_t payload_size = static_cast<std::size_t>(payloadSize_);
    if (payload_size < 8)
        return fail(TraceStatus::Truncated,
                    "payload too small for the index offset");
    wire::ByteReader tail(payload() + payload_size - 8, 8);
    const std::uint64_t index_offset = tail.u64();
    if (index_offset > payload_size - 8)
        return fail(TraceStatus::Corrupt,
                    "block index offset out of range");

    if (!index_.decode(payload() + index_offset,
                       payload_size - 8 - index_offset, &err))
        return fail(TraceStatus::Corrupt, "block index: " + err);
    if (index_.blobOffset > index_offset ||
            index_.blobBytes() != index_offset - index_.blobOffset)
        return fail(TraceStatus::Corrupt,
                    "block sizes do not cover the record blob");
    metaSize_ = static_cast<std::size_t>(index_.blobOffset);
    if (index_.metaChecksum != wire::wordHash(payload(), metaSize_))
        return fail(TraceStatus::Corrupt,
                    "meta-section checksum mismatch");

    std::size_t consumed = 0;
    const TraceStatus meta_status = trace::detail::parseMetaSections(
        payload(), metaSize_, &meta_, &consumed, &err);
    if (meta_status != TraceStatus::Ok)
        return fail(meta_status, std::move(err));
    if (consumed != metaSize_)
        return fail(TraceStatus::Corrupt,
                    "meta sections do not end at the record blob");
    if (configHash(meta_) != header.configHash)
        return fail(TraceStatus::Corrupt,
                    "header config hash does not match config section");
    // Seeking binary-searches block cycle ranges; an unordered index
    // cannot serve a window correctly, so refuse it up front.
    if (!index_.cyclesOrdered())
        return fail(TraceStatus::NonMonotonic,
                    "block cycle ranges are not ordered: a block's cycle "
                    "precedes an earlier one");

    open_ = true;
    return TraceStatus::Ok;
}

std::unique_ptr<RecordCursor>
TraceFile::cursorForRecords(std::uint64_t first, std::uint64_t end) const
{
    first = std::min<std::uint64_t>(first, index_.records);
    end = std::clamp(end, first, index_.records);
    if (!open_ || first == end)
        return std::make_unique<RecordCursor>(this, 0, 0, 0, 0, 0, 0);
    const std::size_t first_block = index_.blockForRecord(first);
    const std::size_t end_block = index_.blockForRecord(end - 1) + 1;
    return std::make_unique<RecordCursor>(
        this, first_block, end_block, first, end, 0,
        ~static_cast<std::uint64_t>(0));
}

std::unique_ptr<RecordCursor>
TraceFile::cursorForCycles(std::uint64_t begin, std::uint64_t end) const
{
    if (!open_ || begin >= end)
        return std::make_unique<RecordCursor>(this, 0, 0, 0, 0, 0, 0);
    std::size_t first_block = 0;
    std::size_t end_block = 0;
    index_.blocksForCycles(begin, end, &first_block, &end_block);
    return std::make_unique<RecordCursor>(
        this, first_block, end_block, 0, index_.records, begin, end);
}

bool
TraceFile::payloadChecksumOk() const
{
    if (!open_)
        return false;
    const std::size_t payload_size = static_cast<std::size_t>(payloadSize_);
    wire::ByteReader trailer(payload() + payload_size, kTraceTrailerSize);
    return trailer.u64() == wire::wordHash(payload(), payload_size);
}

TraceStatus
TraceFile::readAll(Trace *out) const
{
    out->meta = meta_;
    out->records.clear();
    if (!open_) {
        out->meta = {};
        return TraceStatus::IoError;
    }
    const std::unique_ptr<RecordCursor> cur = cursor();
    pebs::PebsRecord rec;
    while (cur->next(&rec))
        out->records.push_back(rec);
    return cur->status();
}

} // namespace laser::trace
