#include "trace/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "trace/wire.h"

namespace laser::trace {

namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::fnv1a;

void
putTiming(ByteWriter &w, const sim::TimingModel &t)
{
    w.var(t.base);
    w.var(t.pauseCost);
    w.var(t.fenceCost);
    w.var(t.atomicExtra);
    w.var(t.l1Hit);
    w.var(t.llcHit);
    w.var(t.memMiss);
    w.var(t.hitm);
    w.var(t.upgrade);
    w.var(t.rfoShared);
    w.var(t.ssbStore);
    w.var(t.ssbLoadCheck);
    w.var(t.ssbLoadHit);
    w.var(t.ssbFlushBase);
    w.var(t.aliasCheckCost);
    w.var(t.pinBaseOverhead);
    w.var(t.pinAttachCost);
    w.var(t.pebsAssist);
    w.var(t.pmiCost);
    w.var(t.driverPerRecord);
    w.var(t.detectorPerRecord);
}

void
getTiming(ByteReader &r, sim::TimingModel *t)
{
    t->base = static_cast<std::uint32_t>(r.var());
    t->pauseCost = static_cast<std::uint32_t>(r.var());
    t->fenceCost = static_cast<std::uint32_t>(r.var());
    t->atomicExtra = static_cast<std::uint32_t>(r.var());
    t->l1Hit = static_cast<std::uint32_t>(r.var());
    t->llcHit = static_cast<std::uint32_t>(r.var());
    t->memMiss = static_cast<std::uint32_t>(r.var());
    t->hitm = static_cast<std::uint32_t>(r.var());
    t->upgrade = static_cast<std::uint32_t>(r.var());
    t->rfoShared = static_cast<std::uint32_t>(r.var());
    t->ssbStore = static_cast<std::uint32_t>(r.var());
    t->ssbLoadCheck = static_cast<std::uint32_t>(r.var());
    t->ssbLoadHit = static_cast<std::uint32_t>(r.var());
    t->ssbFlushBase = static_cast<std::uint32_t>(r.var());
    t->aliasCheckCost = static_cast<std::uint32_t>(r.var());
    t->pinBaseOverhead = static_cast<std::uint32_t>(r.var());
    t->pinAttachCost = r.var();
    t->pebsAssist = static_cast<std::uint32_t>(r.var());
    t->pmiCost = static_cast<std::uint32_t>(r.var());
    t->driverPerRecord = static_cast<std::uint32_t>(r.var());
    t->detectorPerRecord = static_cast<std::uint32_t>(r.var());
}

/** The hashed config section: workload identity + every knob that can
 *  change the record stream or the modeled runtime. */
void
putConfig(ByteWriter &w, const TraceMeta &m)
{
    w.str(m.workload);
    w.str(m.scheme);

    const workloads::BuildOptions &b = m.build;
    w.boolean(b.manualFix);
    w.var(b.heapPerturbation);
    w.zig(b.numThreads);
    w.var(b.inputSeed);
    w.f64(b.scale);

    const sim::MachineConfig &mc = m.machine;
    w.zig(mc.numCores);
    putTiming(w, mc.timing);
    w.var(mc.seed);
    w.var(mc.maxInstructions);
    w.var(mc.heapPerturbation);
    w.boolean(mc.threadsAsProcesses);
    w.boolean(mc.trackDirtyPages);
    w.zig(mc.ssbMaxEntries);
    w.u8(static_cast<std::uint8_t>(mc.ssbMode));
    w.boolean(mc.recordTsoTrace);

    const pebs::PebsConfig &p = m.pebs;
    w.var(p.sav);
    w.var(p.bufferCapacity);
    w.var(p.seed);
    w.boolean(p.keepGroundTruth);
    w.boolean(p.chargeCosts);
    w.f64(p.loadAddrCorrect);
    w.f64(p.loadPcExact);
    w.f64(p.loadPcAdjacent);
    w.f64(p.storeAddrCorrect);
    w.f64(p.storePcExact);
    w.f64(p.storePcAdjacent);
    w.f64(p.wrongAddrUnmapped);
    w.f64(p.wrongPcInBinary);

    const baselines::VTuneConfig &v = m.vtune;
    w.f64(v.rateThreshold);
    w.var(v.eventCost);
    w.var(v.memopSav);
    w.var(v.memopCost);
    w.var(v.hotLoadWindow);
    w.var(v.hotLoadSav);
    w.var(v.hotLoadCost);
    w.var(v.seed);

    const baselines::SheriffConfig &s = m.sheriff;
    w.var(s.syncBaseCost);
    w.var(s.perDirtyPageCost);
    w.var(s.detectExtraCost);
    w.boolean(s.detectMode);

    // Coherence protocol + line size + per-protocol costs. Hashed so
    // trace-cache keys can never collide across protocols or line
    // sizes. The Dragon costs sit here rather than in putTiming:
    // moving them would change every config hash.
    w.u8(static_cast<std::uint8_t>(mc.protocol));
    w.var(mc.geometry.lineBytes);
    w.var(mc.timing.dragonHitm);
    w.var(mc.timing.dragonUpdate);
}

bool
getConfig(ByteReader &r, TraceMeta *m, std::string *err)
{
    m->workload = r.str();
    m->scheme = r.str();

    workloads::BuildOptions &b = m->build;
    b.manualFix = r.boolean();
    b.heapPerturbation = r.var();
    b.numThreads = static_cast<int>(r.zig());
    if (r.ok && !sim::validCoreCount(b.numThreads)) {
        *err = "invalid thread count " + std::to_string(b.numThreads);
        return false;
    }
    b.inputSeed = r.var();
    b.scale = r.f64();
    if (r.ok && !workloads::validScale(b.scale)) {
        *err = "invalid workload scale " + std::to_string(b.scale);
        return false;
    }

    sim::MachineConfig &mc = m->machine;
    mc.numCores = static_cast<int>(r.zig());
    if (r.ok && !sim::validCoreCount(mc.numCores)) {
        *err = "invalid core count " + std::to_string(mc.numCores);
        return false;
    }
    // One thread per core: a capture always writes them equal, and a
    // replay that took one for the other would model another machine.
    if (r.ok && mc.numCores != b.numThreads) {
        *err = "thread count " + std::to_string(b.numThreads) +
               " differs from core count " + std::to_string(mc.numCores);
        return false;
    }
    getTiming(r, &mc.timing);
    mc.seed = r.var();
    mc.maxInstructions = r.var();
    mc.heapPerturbation = r.var();
    mc.threadsAsProcesses = r.boolean();
    mc.trackDirtyPages = r.boolean();
    mc.ssbMaxEntries = static_cast<int>(r.zig());
    const std::uint8_t mode = r.u8();
    if (r.ok && mode > static_cast<std::uint8_t>(sim::SsbMode::Fifo)) {
        *err = "invalid SSB mode " + std::to_string(mode);
        return false;
    }
    mc.ssbMode = static_cast<sim::SsbMode>(mode);
    mc.recordTsoTrace = r.boolean();

    pebs::PebsConfig &p = m->pebs;
    p.sav = static_cast<std::uint32_t>(r.var());
    p.bufferCapacity = static_cast<std::uint32_t>(r.var());
    p.seed = r.var();
    p.keepGroundTruth = r.boolean();
    p.chargeCosts = r.boolean();
    p.loadAddrCorrect = r.f64();
    p.loadPcExact = r.f64();
    p.loadPcAdjacent = r.f64();
    p.storeAddrCorrect = r.f64();
    p.storePcExact = r.f64();
    p.storePcAdjacent = r.f64();
    p.wrongAddrUnmapped = r.f64();
    p.wrongPcInBinary = r.f64();

    baselines::VTuneConfig &v = m->vtune;
    v.rateThreshold = r.f64();
    v.eventCost = r.var();
    v.memopSav = r.var();
    v.memopCost = r.var();
    v.hotLoadWindow = r.var();
    v.hotLoadSav = r.var();
    v.hotLoadCost = r.var();
    v.seed = r.var();

    baselines::SheriffConfig &s = m->sheriff;
    s.syncBaseCost = r.var();
    s.perDirtyPageCost = r.var();
    s.detectExtraCost = r.var();
    s.detectMode = r.boolean();

    const std::uint8_t proto = r.u8();
    if (r.ok &&
            proto > static_cast<std::uint8_t>(sim::ProtocolKind::Dragon)) {
        *err = "invalid coherence protocol " + std::to_string(proto);
        return false;
    }
    mc.protocol = static_cast<sim::ProtocolKind>(proto);
    mc.geometry.lineBytes = static_cast<std::uint32_t>(r.var());
    if (r.ok && !mc.geometry.valid()) {
        *err = "invalid cache line size " +
               std::to_string(mc.geometry.lineBytes);
        return false;
    }
    mc.timing.dragonHitm = static_cast<std::uint32_t>(r.var());
    mc.timing.dragonUpdate = static_cast<std::uint32_t>(r.var());
    return true;
}

void
putVarVec(ByteWriter &w, const std::vector<std::uint64_t> &v)
{
    w.var(v.size());
    for (std::uint64_t x : v)
        w.var(x);
}

bool
getVarVec(ByteReader &r, std::vector<std::uint64_t> *v)
{
    const std::uint64_t n = r.var();
    // Each element takes >= 1 byte, so n can never exceed the bytes left;
    // this bounds the reserve against allocation-bomb counts.
    if (!r.ok || n > r.remaining()) {
        r.ok = false;
        return false;
    }
    v->reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && r.ok; ++i)
        v->push_back(r.var());
    return r.ok;
}

void
putResults(ByteWriter &w, const TraceMeta &m)
{
    const sim::MachineStats &s = m.stats;
    w.var(s.cycles);
    w.var(s.instructions);
    w.var(s.loads);
    w.var(s.stores);
    w.var(s.atomics);
    w.var(s.l1Hits);
    w.var(s.llcHits);
    w.var(s.memMisses);
    w.var(s.upgrades);
    w.var(s.rfos);
    w.var(s.hitmLoads);
    w.var(s.hitmStores);
    w.var(s.syncOps);
    w.var(s.ssbStores);
    w.var(s.ssbLoadHits);
    w.var(s.ssbFlushes);
    w.var(s.ssbFlushedEntries);
    w.var(s.ssbMaxEntriesSeen);
    w.var(s.aliasChecks);
    w.var(s.aliasMisspecs);
    w.boolean(s.truncated);
    putVarVec(w, s.threadCycles);
    putVarVec(w, s.threadInstructions);
    w.var(m.runtimeCycles);
    w.str(m.mapsText);
}

void
getResults(ByteReader &r, TraceMeta *m)
{
    sim::MachineStats &s = m->stats;
    s.cycles = r.var();
    s.instructions = r.var();
    s.loads = r.var();
    s.stores = r.var();
    s.atomics = r.var();
    s.l1Hits = r.var();
    s.llcHits = r.var();
    s.memMisses = r.var();
    s.upgrades = r.var();
    s.rfos = r.var();
    s.hitmLoads = r.var();
    s.hitmStores = r.var();
    s.syncOps = r.var();
    s.ssbStores = r.var();
    s.ssbLoadHits = r.var();
    s.ssbFlushes = r.var();
    s.ssbFlushedEntries = r.var();
    s.ssbMaxEntriesSeen = r.var();
    s.aliasChecks = r.var();
    s.aliasMisspecs = r.var();
    s.truncated = r.boolean();
    getVarVec(r, &s.threadCycles);
    getVarVec(r, &s.threadInstructions);
    m->runtimeCycles = r.var();
    m->mapsText = r.str();
}

/** Wrap a payload image in header + trailer. */
std::vector<std::uint8_t>
wrapPayload(const std::vector<std::uint8_t> &payload_bytes,
            std::uint64_t config_hash)
{
    std::vector<std::uint8_t> out_bytes;
    ByteWriter out(out_bytes);
    out_bytes.reserve(kTraceHeaderSize + payload_bytes.size() +
                      kTraceTrailerSize);
    // Byte-wise append: GCC 12's stringop-overflow pass misjudges the
    // range insert of the 4-byte magic array and warns spuriously.
    for (const char c : kTraceMagic)
        out_bytes.push_back(static_cast<std::uint8_t>(c));
    out.u32(kTraceVersion);
    out.u32(kTraceEndianMarker);
    out.u64(config_hash);
    out.u64(payload_bytes.size());
    out_bytes.insert(out_bytes.end(), payload_bytes.begin(),
                     payload_bytes.end());
    out.u64(fnv1a(payload_bytes.data(), payload_bytes.size()));
    return out_bytes;
}

/**
 * Encode one block (the four column buffers, each with its column's
 * codec) onto @p out and return its filled index entry (firstRecord and
 * blobOffset left for the caller).
 */
columnar::BlockInfo
encodeBlock(const std::vector<std::uint64_t> cols[columnar::kColumnCount],
            std::vector<std::uint8_t> *out)
{
    columnar::BlockInfo b;
    b.records = cols[columnar::kColCycle].size();
    b.firstCycle = cols[columnar::kColCycle].front();
    b.lastCycle = cols[columnar::kColCycle].back();
    const std::size_t start = out->size();
    for (std::size_t c = 0; c < columnar::kColumnCount; ++c) {
        const std::size_t col_start = out->size();
        columnar::encodeColumn(c, cols[c], out);
        b.columnBytes[c] = out->size() - col_start;
    }
    b.checksum = fnv1a(out->data() + start, out->size() - start);
    return b;
}

} // namespace

const char *
traceStatusName(TraceStatus status)
{
    switch (status) {
      case TraceStatus::Ok:            return "ok";
      case TraceStatus::IoError:       return "io error";
      case TraceStatus::BadMagic:      return "bad magic";
      case TraceStatus::BadVersion:    return "version mismatch";
      case TraceStatus::BadEndianness: return "endianness mismatch";
      case TraceStatus::Truncated:     return "truncated";
      case TraceStatus::Corrupt:       return "corrupt";
      case TraceStatus::NonMonotonic:  return "non-monotonic cycles";
    }
    return "???";
}

std::uint64_t
configHash(const TraceMeta &meta)
{
    std::vector<std::uint8_t> bytes;
    ByteWriter w(bytes);
    w.u32(kTraceVersion);
    putConfig(w, meta);
    return fnv1a(bytes.data(), bytes.size());
}

namespace detail {

TraceStatus
parseTraceHeader(const std::uint8_t *data, std::size_t size,
                 HeaderInfo *out, std::string *err)
{
    *out = {};
    err->clear();
    if (size < kTraceHeaderSize) {
        *err = "file shorter than the fixed header (" +
               std::to_string(size) + " bytes)";
        return TraceStatus::Truncated;
    }
    if (std::memcmp(data, kTraceMagic, 4) != 0) {
        *err = "magic bytes are not \"LSRT\"";
        return TraceStatus::BadMagic;
    }
    ByteReader header(data + 4, kTraceHeaderSize - 4);
    const std::uint32_t version = header.u32();
    if (version != kTraceVersion) {
        *err = "trace version " + std::to_string(version) +
               ", reader supports only " + std::to_string(kTraceVersion);
        return TraceStatus::BadVersion;
    }
    const std::uint32_t endian = header.u32();
    if (endian != kTraceEndianMarker) {
        *err = "endianness marker mismatch (foreign-endian writer?)";
        return TraceStatus::BadEndianness;
    }
    out->configHash = header.u64();
    out->payloadSize = header.u64();
    return TraceStatus::Ok;
}

TraceStatus
parseMetaSections(const std::uint8_t *payload, std::size_t size,
                  TraceMeta *meta, std::size_t *consumed, std::string *err)
{
    *consumed = 0;
    ByteReader r(payload, size);
    std::string config_err;
    if (!getConfig(r, meta, &config_err)) {
        if (!r.ok) {
            *err = "config section ends mid-structure";
            return TraceStatus::Truncated;
        }
        *err = config_err;
        return TraceStatus::Corrupt;
    }
    if (!r.ok) {
        *err = "config section ends mid-structure";
        return TraceStatus::Truncated;
    }
    getResults(r, meta);
    if (!r.ok) {
        *err = "results section ends mid-structure";
        return TraceStatus::Truncated;
    }
    *consumed = size - r.remaining();
    return TraceStatus::Ok;
}

} // namespace detail

// ---------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------

TraceWriter::TraceWriter(TraceMeta meta, std::size_t block_records)
    : meta_(std::move(meta)),
      blockRecords_(std::clamp<std::size_t>(block_records, 1,
                                            columnar::kMaxBlockRecords))
{
}

void
TraceWriter::append(const pebs::PebsRecord &rec)
{
    if (rec.cycle < prevCycle_)
        monotonic_ = false;
    pending_[columnar::kColPc].push_back(rec.pc);
    pending_[columnar::kColAddr].push_back(rec.dataAddr);
    pending_[columnar::kColCore].push_back(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.core)));
    pending_[columnar::kColCycle].push_back(rec.cycle);
    prevCycle_ = rec.cycle;
    ++recordCount_;
    if (pending_[columnar::kColCycle].size() >= blockRecords_)
        flushBlock();
}

void
TraceWriter::flushBlock()
{
    const std::size_t blob_offset = blob_.size();
    columnar::BlockInfo b = encodeBlock(pending_, &blob_);
    b.firstRecord = recordCount_ - b.records;
    b.blobOffset = blob_offset;
    index_.blocks.push_back(b);
    for (auto &col : pending_)
        col.clear();
}

void
TraceWriter::appendAll(const std::vector<pebs::PebsRecord> &recs)
{
    for (const pebs::PebsRecord &rec : recs)
        append(rec);
}

std::vector<std::uint8_t>
TraceWriter::finalize() const
{
    std::vector<std::uint8_t> payload_bytes;
    ByteWriter payload(payload_bytes);
    putConfig(payload, meta_);
    putResults(payload, meta_);

    columnar::BlockIndex index = index_;
    index.records = recordCount_;
    index.blobOffset = payload_bytes.size();
    index.metaChecksum = fnv1a(payload_bytes.data(), payload_bytes.size());

    payload_bytes.insert(payload_bytes.end(), blob_.begin(), blob_.end());
    // The current partial block (finalize() is const, so it cannot be
    // flushed into blob_) encodes straight onto the payload.
    if (!pending_[columnar::kColCycle].empty()) {
        const std::size_t blob_offset = blob_.size();
        columnar::BlockInfo b = encodeBlock(pending_, &payload_bytes);
        b.firstRecord = recordCount_ - b.records;
        b.blobOffset = blob_offset;
        index.blocks.push_back(b);
    }
    const std::uint64_t index_offset = payload_bytes.size();
    index.encode(&payload_bytes);
    payload.u64(index_offset);

    return wrapPayload(payload_bytes, configHash(meta_));
}

TraceStatus
TraceWriter::writeFile(const std::string &path) const
{
    // Refuse to persist a stream every conforming reader would reject;
    // sort with analysis::sortByCycle before appending.
    if (!monotonic_)
        return TraceStatus::NonMonotonic;
    const std::vector<std::uint8_t> bytes = finalize();
    // Unique temp name: concurrent writers of the same cache file (two
    // sweeps sharing a cache directory) must not clobber each other's
    // in-progress image before the atomic rename.
    static std::atomic<unsigned> counter{0};
    const std::string tmp = path + ".tmp" +
                            std::to_string(::getpid()) + "." +
                            std::to_string(counter.fetch_add(1));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return TraceStatus::IoError;
    const std::size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (written != bytes.size() || !closed ||
            std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return TraceStatus::IoError;
    }
    return TraceStatus::Ok;
}

TraceStatus
writeTraceFile(const Trace &trace, const std::string &path)
{
    TraceWriter writer(trace.meta);
    writer.appendAll(trace.records);
    return writer.writeFile(path);
}

} // namespace laser::trace
