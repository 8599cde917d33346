/**
 * @file
 * Tests for the LSRT columnar layer: per-column codec round-trips and
 * strict rejection, block-index bomb bounds, seek-window decode
 * equivalence, streaming-replay memory bounds, and the gc-vs-disk-hit
 * race paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "detect/types.h"
#include "trace/capture.h"
#include "trace/columnar.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/source.h"
#include "trace/trace.h"
#include "trace/trace_file.h"

namespace laser::trace {
namespace {

namespace fs = std::filesystem;
namespace col = columnar;

/** Deterministic pseudo-random values (xorshift; no global seed). */
std::uint64_t
nextRand(std::uint64_t *state)
{
    std::uint64_t x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return *state = x;
}

TraceMeta
syntheticMeta()
{
    TraceMeta meta;
    meta.workload = "kmeans";
    meta.scheme = "laser-detect";
    meta.pebs.sav = 19;
    meta.stats.cycles = 500000;
    meta.runtimeCycles = 500000;
    meta.mapsText = "00400000-00410000 r-xp 00000000 00:00 1  /app\n";
    return meta;
}

/** @p n records with clustered addresses and non-decreasing cycles. */
std::vector<pebs::PebsRecord>
syntheticRecords(std::size_t n)
{
    std::vector<pebs::PebsRecord> recs;
    recs.reserve(n);
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::uint64_t cycle = 1000;
    for (std::size_t i = 0; i < n; ++i) {
        pebs::PebsRecord r;
        r.pc = 0x400000 + (nextRand(&rng) % 64) * 4;
        // Two address clusters, like a heap region + a stack region.
        r.dataAddr = (i % 3 == 0)
                         ? 0xffff'8000'0000'0000ull + nextRand(&rng) % 4096
                         : 0x1000000 + (nextRand(&rng) % 512) * 8;
        r.core = static_cast<int>(nextRand(&rng) % 4);
        cycle += nextRand(&rng) % 97; // occasionally zero: equal cycles
        r.cycle = cycle;
        recs.push_back(r);
    }
    return recs;
}

// ---------------------------------------------------------------------
// Codec units
// ---------------------------------------------------------------------

std::vector<std::vector<std::uint64_t>>
codecCorpus()
{
    std::vector<std::vector<std::uint64_t>> corpus;
    corpus.push_back({});                      // empty
    corpus.push_back({42});                    // single value
    corpus.push_back(std::vector<std::uint64_t>(300, 7)); // constant
    std::vector<std::uint64_t> strided;        // constant stride
    for (std::uint64_t i = 0; i < 500; ++i)
        strided.push_back(1000 + i * 64);
    corpus.push_back(strided);
    std::vector<std::uint64_t> outlier = strided; // stride + one spike
    outlier[250] = 0xffff'ffff'ffff'0000ull;
    corpus.push_back(outlier);
    std::vector<std::uint64_t> random;         // high entropy
    std::uint64_t rng = 0xdeadbeefcafef00dull;
    for (int i = 0; i < 400; ++i)
        random.push_back(nextRand(&rng));
    corpus.push_back(random);
    std::vector<std::uint64_t> clustered;      // two tight clusters
    for (int i = 0; i < 300; ++i)
        clustered.push_back((i % 2 ? 0xffff'8000'0000'0000ull : 0x10000) +
                            nextRand(&rng) % 256);
    corpus.push_back(clustered);
    return corpus;
}

TEST(ColumnCodec, EveryCodecRoundTripsEveryShape)
{
    for (const auto &vals : codecCorpus()) {
        for (std::uint8_t k = 0; k < col::kCodecCount; ++k) {
            const auto codec = static_cast<col::ColumnCodec>(k);
            std::vector<std::uint8_t> bytes;
            col::encodeColumn(codec, vals, &bytes);
            std::vector<std::uint64_t> decoded;
            ASSERT_TRUE(col::decodeColumn(codec, bytes.data(),
                                          bytes.size(), vals.size(),
                                          &decoded))
                << col::codecName(codec) << " over " << vals.size()
                << " values";
            EXPECT_EQ(decoded, vals) << col::codecName(codec);
        }
    }
}

TEST(ColumnCodec, RejectsTruncationAndTrailingBytes)
{
    const auto corpus = codecCorpus();
    const std::vector<std::uint64_t> &vals = corpus.back();
    for (std::uint8_t k = 0; k < col::kCodecCount; ++k) {
        const auto codec = static_cast<col::ColumnCodec>(k);
        std::vector<std::uint8_t> bytes;
        col::encodeColumn(codec, vals, &bytes);
        std::vector<std::uint64_t> decoded;
        for (std::size_t cut = 0; cut < bytes.size(); ++cut)
            EXPECT_FALSE(col::decodeColumn(codec, bytes.data(), cut,
                                           vals.size(), &decoded))
                << col::codecName(codec) << " accepted a " << cut
                << "-byte prefix";
        std::vector<std::uint8_t> padded = bytes;
        padded.push_back(0x00);
        EXPECT_FALSE(col::decodeColumn(codec, padded.data(),
                                       padded.size(), vals.size(),
                                       &decoded))
            << col::codecName(codec) << " accepted a trailing byte";
    }
}

TEST(ColumnCodec, ChooserIsDeterministicAndMinimal)
{
    for (const auto &vals : codecCorpus()) {
        std::vector<std::uint8_t> a, b;
        const col::ColumnCodec ca = col::chooseCodec(vals, &a);
        const col::ColumnCodec cb = col::chooseCodec(vals, &b);
        EXPECT_EQ(ca, cb);
        EXPECT_EQ(a, b);
        for (std::uint8_t k = 0; k < col::kCodecCount; ++k) {
            std::vector<std::uint8_t> other;
            col::encodeColumn(static_cast<col::ColumnCodec>(k), vals,
                              &other);
            EXPECT_LE(a.size(), other.size())
                << "chooser picked " << col::codecName(ca)
                << " but " << col::codecName(col::ColumnCodec(k))
                << " is smaller";
        }
    }
}

TEST(BlockIndex, RejectsRecordCountBombs)
{
    col::BlockIndex index;
    index.records = col::kMaxBlockRecords + 1;
    index.blobOffset = 100;
    index.metaChecksum = 7;
    col::BlockInfo b;
    b.records = col::kMaxBlockRecords + 1; // over the bound
    b.firstCycle = 10;
    b.lastCycle = 20;
    b.columnBytes[col::kColPc] = 4; // far smaller than records claims
    index.blocks.push_back(b);

    std::vector<std::uint8_t> bytes;
    index.encode(&bytes);
    col::BlockIndex decoded;
    std::string err;
    EXPECT_FALSE(decoded.decode(bytes.data(), bytes.size(), &err));
    EXPECT_NE(err.find("max"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Seekable file: window decode, corruption, read volume
// ---------------------------------------------------------------------

/** A multi-block image (small blocks force many index entries). */
std::vector<std::uint8_t>
multiBlockImage(const std::vector<pebs::PebsRecord> &recs,
                std::size_t block_records = 256)
{
    TraceWriter writer(syntheticMeta(), block_records);
    writer.appendAll(recs);
    return writer.finalize();
}

std::vector<pebs::PebsRecord>
drainAll(std::unique_ptr<RecordCursor> cur)
{
    struct Collect : analysis::RecordSink
    {
        std::vector<pebs::PebsRecord> recs;
        void onRecord(const pebs::PebsRecord &r) override
        {
            recs.push_back(r);
        }
    } sink;
    cur->drain(sink);
    EXPECT_EQ(cur->status(), TraceStatus::Ok);
    return sink.recs;
}

bool
recordsEqual(const std::vector<pebs::PebsRecord> &a,
             const std::vector<pebs::PebsRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].pc != b[i].pc || a[i].dataAddr != b[i].dataAddr ||
            a[i].core != b[i].core || a[i].cycle != b[i].cycle)
            return false;
    return true;
}

TEST(TraceFileSeek, WindowDecodeMatchesFullDecodeSlice)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(5000);
    TraceFile file;
    ASSERT_EQ(file.openBytes(multiBlockImage(recs)), TraceStatus::Ok)
        << file.error();
    ASSERT_GT(file.index().blocks.size(), 10u);
    EXPECT_EQ(file.recordCount(), recs.size());

    const std::uint64_t lo = recs.front().cycle;
    const std::uint64_t hi = recs.back().cycle + 1;
    const std::uint64_t span = hi - lo;
    for (const auto &[begin, end] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, UINT64_MAX},                       // everything
             {lo + span / 4, lo + span / 2},        // interior window
             {lo, lo + 1},                          // first cycle only
             {hi - 1, hi},                          // last cycle only
             {hi + 100, hi + 200},                  // past the end
             {lo + span / 3, lo + span / 3},        // empty window
         }) {
        std::vector<pebs::PebsRecord> expected;
        for (const pebs::PebsRecord &r : recs)
            if (r.cycle >= begin && r.cycle < end)
                expected.push_back(r);
        const auto got = drainAll(file.cursorForCycles(begin, end));
        EXPECT_TRUE(recordsEqual(got, expected))
            << "window [" << begin << ", " << end << ") yielded "
            << got.size() << " records, expected " << expected.size();
    }

    // Record-range cursors are exact slices too.
    for (const auto &[first, end] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, recs.size()}, {100, 101}, {1000, 4000},
             {recs.size() - 1, recs.size()}, {5000, 9000}}) {
        const auto got = drainAll(file.cursorForRecords(first, end));
        const std::size_t b = std::min<std::size_t>(first, recs.size());
        const std::size_t e = std::min<std::size_t>(end, recs.size());
        EXPECT_TRUE(recordsEqual(
            got, {recs.begin() + b, recs.begin() + e}))
            << "records [" << first << ", " << end << ")";
    }
}

TEST(TraceFileSeek, ReadAllMatchesFullReader)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(2000);
    const std::vector<std::uint8_t> image = multiBlockImage(recs);

    TraceReader reader;
    ASSERT_EQ(reader.parse(image), TraceStatus::Ok) << reader.error();

    TraceFile file;
    ASSERT_EQ(file.openBytes(image), TraceStatus::Ok) << file.error();
    Trace via_seek;
    ASSERT_EQ(file.readAll(&via_seek), TraceStatus::Ok);
    EXPECT_TRUE(recordsEqual(via_seek.records, reader.trace().records));
    EXPECT_EQ(via_seek.meta.workload, reader.trace().meta.workload);
}

TEST(TraceFileSeek, CorruptBlockIsLatchedAsTypedCursorError)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(3000);
    std::vector<std::uint8_t> image = multiBlockImage(recs);

    // The last 8 payload bytes hold the index offset; the byte just
    // before the index is the last record-blob byte.
    std::uint64_t index_offset = 0;
    const std::size_t off_pos = image.size() - 16;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(image[off_pos + i]) << (8 * i);
    image[kTraceHeaderSize + index_offset - 1] ^= 0x20;

    // Opening still succeeds: blocks are not decoded up front.
    TraceFile file;
    ASSERT_EQ(file.openBytes(image), TraceStatus::Ok) << file.error();

    auto cur = file.cursor();
    pebs::PebsRecord rec;
    while (cur->next(&rec)) {
    }
    EXPECT_EQ(cur->status(), TraceStatus::Corrupt);

    // The full reader rejects the same image outright.
    TraceReader reader;
    EXPECT_EQ(reader.parse(image), TraceStatus::Corrupt);
}

TEST(TraceFileSeek, CorruptIndexAndTruncationAreTypedAtOpen)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(1500);
    const std::vector<std::uint8_t> pristine = multiBlockImage(recs);

    // Flip a byte inside the serialized index: checksum mismatch.
    std::uint64_t index_offset = 0;
    const std::size_t off_pos = pristine.size() - 16;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(pristine[off_pos + i]) << (8 * i);
    std::vector<std::uint8_t> bad_index = pristine;
    bad_index[kTraceHeaderSize + index_offset + 2] ^= 0x01;
    TraceFile file;
    EXPECT_EQ(file.openBytes(bad_index), TraceStatus::Corrupt);
    EXPECT_FALSE(file.error().empty());

    // An index offset pointing outside the payload is Corrupt, not UB.
    std::vector<std::uint8_t> bad_offset = pristine;
    for (int i = 0; i < 8; ++i)
        bad_offset[off_pos + i] = 0xff;
    EXPECT_EQ(file.openBytes(bad_offset), TraceStatus::Corrupt);

    // Truncations at every boundary remain typed.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{12}, std::size_t{27},
          pristine.size() / 2, pristine.size() - 1}) {
        std::vector<std::uint8_t> short_image(
            pristine.begin(), pristine.begin() + cut);
        EXPECT_EQ(file.openBytes(std::move(short_image)),
                  TraceStatus::Truncated)
            << "prefix of " << cut << " bytes";
    }
}

// ---------------------------------------------------------------------
// Streaming replay memory: O(block x shards), not O(trace)
// ---------------------------------------------------------------------

TEST(StreamingReplay, PeakBufferedRecordsIsBlockBound)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    ASSERT_NE(kmeans, nullptr);
    const Trace captured = captureTrace(*kmeans);
    ASSERT_FALSE(captured.records.empty());

    // Tile the capture into a stream far larger than the block bound a
    // materializing replay would have to hold wholesale.
    constexpr std::size_t kBlock = 256;
    constexpr int kShards = 4;
    Trace big;
    big.meta = captured.meta;
    const std::uint64_t stride = captured.records.back().cycle + 1;
    while (big.records.size() < 50 * kBlock * kShards) {
        const std::uint64_t c =
            std::uint64_t(big.records.size() / captured.records.size());
        for (pebs::PebsRecord r : captured.records) {
            r.cycle += stride * c;
            big.records.push_back(r);
        }
    }

    const std::string path =
        (fs::temp_directory_path() / "laser_codec_memcap.ltrace")
            .string();
    {
        TraceWriter writer(big.meta, kBlock);
        writer.appendAll(big.records);
        ASSERT_EQ(writer.writeFile(path), TraceStatus::Ok);
    }
    TraceFile file;
    ASSERT_EQ(file.open(path), TraceStatus::Ok) << file.error();
    TraceReplayer env(file.meta(), file);
    ASSERT_TRUE(env.ok()) << env.error();

    resetBufferedRecordsPeak();
    ParallelReplayer::Options opt;
    opt.shards = kShards;
    ParallelReplayer parallel(env, opt);
    EXPECT_EQ(parallel.state().totalRecords, big.records.size());

    const std::size_t peak = bufferedRecordsPeak();
    EXPECT_GT(peak, 0u);
    // One decoded block per shard cursor, with 2x slack for block
    // handoff; a materializing path would hold all records at once.
    EXPECT_LE(peak, 2 * kBlock * kShards)
        << "streaming replay buffered " << peak << " of "
        << big.records.size() << " records";
    EXPECT_LT(peak, big.records.size() / 10);

    // The streamed digest still produces the serial in-memory report.
    detect::DetectorConfig cfg;
    cfg.sav = big.meta.pebs.sav;
    TraceReplayer mem_env(big);
    ASSERT_TRUE(mem_env.ok());
    EXPECT_TRUE(detect::reportsIdentical(mem_env.replay(cfg),
                                         parallel.replay(cfg)));
    std::remove(path.c_str());
}

} // namespace
} // namespace laser::trace
