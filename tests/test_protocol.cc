/**
 * @file
 * Tests for the protocol-pluggable coherence layer (sim/protocol.h):
 * the cross-protocol identity guarantee (MESI behind the interface must
 * reproduce the pre-refactor directory's HITM stream bit-for-bit), the
 * Dragon machine's golden HITM streams, outcome equivalence fuzzing
 * against the retained CoherenceDirectory (MESI) and the unfiltered
 * backend (Dragon) with every access going through the private-hit
 * filter, the filter's revocations, Dragon transition semantics,
 * invariant property fuzzing over random interleavings of both
 * protocols, and cache-geometry behaviour (line indexing, validity
 * bounds). After every fuzzed access each core's filter entry for the
 * line is checked against the backend's state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "machine_digest.h"
#include "sim/coherence.h"
#include "sim/machine.h"
#include "sim/protocol.h"
#include "sim/protocol_dragon.h"
#include "sim/protocol_mesi.h"
#include "workloads/workload.h"

namespace laser::sim {
namespace {

// ---------------------------------------------------------------------
// Cross-protocol identity: goldens captured from the pre-refactor
// CoherenceDirectory machine
// ---------------------------------------------------------------------

/**
 * Order-sensitive FNV-1a digest (Fnv64) over every HITM event's full
 * payload. Field order must not change: the golden table below was
 * captured with exactly this sink running against the pre-refactor
 * directory-MESI machine.
 */
struct HashingSink final : PmuSink
{
    Fnv64 h;
    std::uint64_t count = 0;

    std::uint64_t
    onHitm(const HitmEvent &e) override
    {
        ++count;
        h.mix(static_cast<std::uint64_t>(e.core));
        h.mix(e.pcIndex);
        h.mix(e.vaddr);
        h.mix(e.accessSize);
        h.mix(e.isLoadUop ? 1 : 0);
        h.mix(e.isStore ? 1 : 0);
        h.mix(e.cycle);
        return 0;
    }
};

struct Golden
{
    const char *workload;
    std::uint64_t hitmCount;
    std::uint64_t streamHash;
};

/**
 * Per-workload HITM stream digests of the pre-refactor machine: default
 * BuildOptions, default MachineConfig. If MesiDirectory diverges from
 * the old CoherenceDirectory by even one event field, the digest moves.
 */
constexpr Golden kGoldenHitmStreams[] = {
    {"barnes", 2868ULL, 0x00f44b0d947a8154ULL},
    {"blackscholes", 6ULL, 0x80c81a489b85bfbdULL},
    {"bodytrack", 5837ULL, 0xa202de4ee3385583ULL},
    {"canneal", 0ULL, 0x14650fb0739d0383ULL},
    {"dedup", 5518ULL, 0xe9edd9f9a75b78f1ULL},
    {"facesim", 144ULL, 0x23bdd028195dd4a1ULL},
    {"ferret", 219ULL, 0xf257d75f385893dcULL},
    {"fft", 228ULL, 0xdf1961bfa5d52f9aULL},
    {"fluidanimate", 918ULL, 0x6e0f102c4bba7779ULL},
    {"fmm", 42ULL, 0x31eb9df2f4151874ULL},
    {"freqmine", 0ULL, 0x14650fb0739d0383ULL},
    {"histogram", 0ULL, 0x14650fb0739d0383ULL},
    {"histogram'", 35195ULL, 0x302a8cb5d1576048ULL},
    {"kmeans", 7295ULL, 0xb5c8b874ac240152ULL},
    {"linear_regression", 10582ULL, 0x2039289fe65bb0d8ULL},
    {"lu_cb", 84ULL, 0x545d83c1bccb9ccbULL},
    {"lu_ncb", 2835ULL, 0x8caa3de2e54b6c5fULL},
    {"matrix_multiply", 0ULL, 0x14650fb0739d0383ULL},
    {"ocean_cp", 54ULL, 0xc4b2555ff5b29589ULL},
    {"ocean_ncp", 54ULL, 0x62cf3aa521ba2df3ULL},
    {"pca", 6ULL, 0xecaadc39d151eec2ULL},
    {"radiosity", 435ULL, 0xceb1089875068fe1ULL},
    {"radix", 338ULL, 0xf94bdb99a05d184bULL},
    {"raytrace.parsec", 79ULL, 0x17eecffce0551431ULL},
    {"raytrace.splash2x", 2542ULL, 0x0fd508490387afabULL},
    {"reverse_index", 2999ULL, 0x84e89a04286e06f3ULL},
    {"streamcluster", 8350ULL, 0xac1f05a16569f45aULL},
    {"string_match", 0ULL, 0x14650fb0739d0383ULL},
    {"swaptions", 0ULL, 0x14650fb0739d0383ULL},
    {"vips", 0ULL, 0x14650fb0739d0383ULL},
    {"volrend", 7823ULL, 0x75fd3959bcb78816ULL},
    {"water_nsquared", 18499ULL, 0xf9b553fa4dd587b2ULL},
    {"water_spatial", 1851ULL, 0xfd132b5aeadb3c83ULL},
    {"word_count", 2199ULL, 0x45af516ad5eeace5ULL},
    {"x264", 25600ULL, 0x78e79e980c457c3dULL},
};

TEST(ProtocolIdentity, MesiReproducesPreRefactorHitmStreams)
{
    const auto &all = workloads::allWorkloads();
    ASSERT_EQ(all.size(),
              sizeof kGoldenHitmStreams / sizeof kGoldenHitmStreams[0]);

    for (const Golden &golden : kGoldenHitmStreams) {
        const workloads::WorkloadDef *def =
            workloads::findWorkload(golden.workload);
        ASSERT_NE(def, nullptr) << golden.workload;

        workloads::WorkloadBuild build = def->build({});
        Machine machine(std::move(build.program), {});
        build.applyTo(machine);
        HashingSink sink;
        machine.setPmuSink(&sink);
        const MachineStats stats = machine.run();

        EXPECT_EQ(sink.count, golden.hitmCount) << golden.workload;
        EXPECT_EQ(sink.h.hash, golden.streamHash) << golden.workload;
        EXPECT_EQ(stats.hitmTotal(), golden.hitmCount)
            << golden.workload;
    }
}

/**
 * The same digests for the Dragon backend (default BuildOptions, default
 * MachineConfig with protocol = Dragon). They pin the update-protocol
 * machine path, which the MESI table above never runs.
 */
constexpr Golden kGoldenDragonHitmStreams[] = {
    {"barnes", 385ULL, 0x39426c6864636542ULL},
    {"blackscholes", 2ULL, 0xdf63ed2005760603ULL},
    {"bodytrack", 6ULL, 0xc6ac71704246eaa0ULL},
    {"canneal", 0ULL, 0x14650fb0739d0383ULL},
    {"dedup", 95ULL, 0x2c256a46f4fb05c1ULL},
    {"facesim", 0ULL, 0x14650fb0739d0383ULL},
    {"ferret", 3ULL, 0xb57970875ef9a0a1ULL},
    {"fft", 32ULL, 0xeb6c75fd2089a1c6ULL},
    {"fluidanimate", 768ULL, 0x9ccc12bcbfb3ab3dULL},
    {"fmm", 0ULL, 0x14650fb0739d0383ULL},
    {"freqmine", 0ULL, 0x14650fb0739d0383ULL},
    {"histogram", 0ULL, 0x14650fb0739d0383ULL},
    {"histogram'", 4ULL, 0x50082c008108cb5fULL},
    {"kmeans", 333ULL, 0xb316aa27d22c40ceULL},
    {"linear_regression", 4ULL, 0x39d379de997159efULL},
    {"lu_cb", 0ULL, 0x14650fb0739d0383ULL},
    {"lu_ncb", 19ULL, 0xf73992c5b3d03864ULL},
    {"matrix_multiply", 0ULL, 0x14650fb0739d0383ULL},
    {"ocean_cp", 0ULL, 0x14650fb0739d0383ULL},
    {"ocean_ncp", 0ULL, 0x14650fb0739d0383ULL},
    {"pca", 0ULL, 0x14650fb0739d0383ULL},
    {"radiosity", 0ULL, 0x14650fb0739d0383ULL},
    {"radix", 6ULL, 0x94dac1ca0857fac1ULL},
    {"raytrace.parsec", 3ULL, 0xb8053b443e228a41ULL},
    {"raytrace.splash2x", 3ULL, 0x3d0ddd3fad39ba4eULL},
    {"reverse_index", 3ULL, 0x2aa626480e4ded9cULL},
    {"streamcluster", 3ULL, 0xd6b612b7190aca51ULL},
    {"string_match", 0ULL, 0x14650fb0739d0383ULL},
    {"swaptions", 0ULL, 0x14650fb0739d0383ULL},
    {"vips", 0ULL, 0x14650fb0739d0383ULL},
    {"volrend", 0ULL, 0x14650fb0739d0383ULL},
    {"water_nsquared", 193ULL, 0x2725ee23b3a6ffdaULL},
    {"water_spatial", 194ULL, 0x407b310ae6c2844aULL},
    {"word_count", 3ULL, 0x786796f9f3629180ULL},
    {"x264", 0ULL, 0x14650fb0739d0383ULL},
};

TEST(ProtocolIdentity, DragonHitmStreamsMatchGoldens)
{
    ASSERT_EQ(workloads::allWorkloads().size(),
              std::size(kGoldenDragonHitmStreams));

    for (const Golden &golden : kGoldenDragonHitmStreams) {
        const workloads::WorkloadDef *def =
            workloads::findWorkload(golden.workload);
        ASSERT_NE(def, nullptr) << golden.workload;

        workloads::WorkloadBuild build = def->build({});
        MachineConfig mc;
        mc.protocol = ProtocolKind::Dragon;
        Machine machine(std::move(build.program), mc);
        build.applyTo(machine);
        HashingSink sink;
        machine.setPmuSink(&sink);
        const MachineStats stats = machine.run();

        EXPECT_EQ(sink.count, golden.hitmCount) << golden.workload;
        EXPECT_EQ(sink.h.hash, golden.streamHash)
            << golden.workload << " " << sink.count << " 0x" << std::hex
            << sink.h.hash;
        EXPECT_EQ(stats.hitmTotal(), golden.hitmCount)
            << golden.workload;
    }
}

// ---------------------------------------------------------------------
// Outcome-equivalence fuzz against the retained CoherenceDirectory
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// The private-hit filter (sim/protocol.h) against the backend's state
// ---------------------------------------------------------------------

/** The rule for a writable filter entry: an M line the core owns. */
bool
grantsWrite(const MesiDirectory::LineInfo &li, int core)
{
    return li.modified && li.owner == core;
}

/** The rule for a writable filter entry: owner and sole sharer. */
bool
grantsWrite(const DragonBus::LineInfo &li, int core)
{
    return li.owner == core && li.sharers == (1u << core);
}

/**
 * Every core's filter entry in @p line's slot promises no right that
 * @p proto's line state does not grant: readable needs a copy, writable
 * needs grantsWrite(). @p accessor, when >= 0, just accessed @p line, so
 * its entry must hold exactly the rights it has.
 */
template <class Proto>
::testing::AssertionResult
filterHonest(const Proto &proto, std::uint64_t line, int accessor = -1)
{
    for (int core = 0; core < proto.numCores(); ++core) {
        const CoherenceProtocol::FilterEntry &e =
            proto.filterEntry(core, line);
        if (core == accessor) {
            const auto *li = proto.probe(line);
            if (e.empty() || e.line() != line || li == nullptr ||
                    e.writable() != grantsWrite(*li, core))
                return ::testing::AssertionFailure()
                       << "accessor " << core << " lacks its exact rights"
                       << " on line " << line;
        }
        if (e.empty())
            continue;
        const auto *li = proto.probe(e.line());
        if (li == nullptr || (li->sharers & (1u << core)) == 0)
            return ::testing::AssertionFailure()
                   << "core " << core << " may read line " << e.line()
                   << " it holds no copy of";
        if (e.writable() && !grantsWrite(*li, core))
            return ::testing::AssertionFailure()
                   << "core " << core << " may write line " << e.line()
                   << " without the right";
    }
    return ::testing::AssertionSuccess();
}

/** filterHonest() through the concrete backend of @p proto. */
::testing::AssertionResult
filterHonest(const CoherenceProtocol &proto, std::uint64_t line,
             int accessor = -1)
{
    if (proto.kind() == ProtocolKind::Mesi)
        return filterHonest(static_cast<const MesiDirectory &>(proto), line,
                            accessor);
    return filterHonest(static_cast<const DragonBus &>(proto), line,
                        accessor);
}

/** What Machine::memAccess does: ask the filter, else the backend. */
AccessOutcome
filteredAccess(CoherenceProtocol &proto, int core, std::uint64_t addr,
               bool is_write, bool is_load_class)
{
    if (proto.privateHit(core, proto.lineOf(addr), is_write))
        return AccessOutcome::L1Hit;
    return proto.access(core, addr, is_write, is_load_class);
}

/** Each seed at the paper's 4 cores, and the last one at kMaxCores. */
std::vector<std::pair<std::uint64_t, int>>
seedsAndCores(std::initializer_list<std::uint64_t> seeds)
{
    std::vector<std::pair<std::uint64_t, int>> out;
    for (std::uint64_t seed : seeds)
        out.emplace_back(seed, 4);
    out.emplace_back(out.back().first, kMaxCores);
    return out;
}

TEST(ProtocolIdentity, MesiMatchesCoherenceDirectoryOnRandomStreams)
{
    // {seed, cores}: kMaxCores fills the 32-bit sharer mask, where
    // checkInvariants' bound on the mask must stay well-defined.
    for (const auto &[seed, cores] : seedsAndCores({1, 7, 42, 1234})) {
        std::mt19937_64 rng(seed);
        CoherenceDirectory reference(cores);
        MesiDirectory mesi(cores);

        std::set<std::uint64_t> touched;

        for (int i = 0; i < 20000; ++i) {
            const int core = static_cast<int>(rng() % cores);
            // A small address pool concentrates contention so every
            // transition arm is exercised; one access in eight goes to
            // a sparse pool of 2048 lines instead, which grows the line
            // table through several rehashes.
            const std::uint64_t addr = rng() % 8 != 0
                                           ? (rng() % 64) * 8
                                           : (rng() % 2048) * 4096 + 64;
            const bool is_write = (rng() & 1) != 0;
            const bool is_load_class = !is_write || (rng() & 1) != 0;

            const AccessOutcome expected =
                reference.access(core, addr, is_write, is_load_class);
            const std::uint64_t line = mesi.lineOf(addr);
            const bool skipped = mesi.privateHit(core, line, is_write);
            const AccessOutcome actual =
                filteredAccess(mesi, core, addr, is_write, is_load_class);
            ASSERT_EQ(actual, expected)
                << "seed " << seed << " cores " << cores << " step " << i;
            ASSERT_TRUE(filterHonest(mesi, line, skipped ? -1 : core))
                << "seed " << seed << " cores " << cores << " step " << i;
            touched.insert(line);
        }
        for (std::uint64_t line : touched)
            ASSERT_TRUE(filterHonest(mesi, line)) << "seed " << seed;
        EXPECT_TRUE(reference.checkInvariants()) << cores;
        EXPECT_TRUE(mesi.checkInvariants()) << cores;
        EXPECT_EQ(mesi.linesTouched(), reference.linesTouched());
        EXPECT_EQ(mesi.linesTouched(), touched.size());
        for (std::uint64_t line : touched) {
            const CoherenceDirectory::LineInfo *want =
                reference.probe(line);
            const MesiDirectory::LineInfo *got = mesi.probe(line);
            ASSERT_NE(want, nullptr) << "seed " << seed << " line " << line;
            ASSERT_NE(got, nullptr) << "seed " << seed << " line " << line;
            EXPECT_EQ(got->sharers, want->sharers) << "line " << line;
            EXPECT_EQ(got->owner, want->owner) << "line " << line;
            EXPECT_EQ(got->modified, want->modified) << "line " << line;
            EXPECT_EQ(got->exclusive, want->exclusive) << "line " << line;
        }
        // A line no access touched is absent from both.
        EXPECT_EQ(reference.probe(mesi.lineOf(0x7fff0000)), nullptr);
        EXPECT_EQ(mesi.probe(mesi.lineOf(0x7fff0000)), nullptr);
    }
}

TEST(ProtocolIdentity, DragonFilterPathMatchesBackendOnRandomStreams)
{
    // Dragon has no retained reference model; the reference is the same
    // backend asked on every access, as before the filter.
    for (const auto &[seed, cores] : seedsAndCores({5, 77, 4321})) {
        std::mt19937_64 rng(seed);
        DragonBus reference(cores);
        DragonBus dragon(cores);
        std::set<std::uint64_t> touched;

        for (int i = 0; i < 20000; ++i) {
            const int core = static_cast<int>(rng() % cores);
            const std::uint64_t addr = rng() % 8 != 0
                                           ? (rng() % 64) * 8
                                           : (rng() % 2048) * 4096 + 64;
            const bool is_write = (rng() & 1) != 0;
            const bool is_load_class = !is_write || (rng() & 1) != 0;

            const AccessOutcome expected =
                reference.access(core, addr, is_write, is_load_class);
            const std::uint64_t line = dragon.lineOf(addr);
            const bool skipped = dragon.privateHit(core, line, is_write);
            const AccessOutcome actual = filteredAccess(
                dragon, core, addr, is_write, is_load_class);
            ASSERT_EQ(actual, expected)
                << "seed " << seed << " cores " << cores << " step " << i;
            ASSERT_TRUE(filterHonest(dragon, line, skipped ? -1 : core))
                << "seed " << seed << " cores " << cores << " step " << i;
            touched.insert(line);
        }
        EXPECT_TRUE(dragon.checkInvariants()) << cores;
        EXPECT_EQ(dragon.busUpdates(), reference.busUpdates());
        EXPECT_EQ(dragon.linesTouched(), touched.size());
        for (std::uint64_t line : touched) {
            const DragonBus::LineInfo *want = reference.probe(line);
            const DragonBus::LineInfo *got = dragon.probe(line);
            ASSERT_NE(want, nullptr) << "seed " << seed << " line " << line;
            ASSERT_NE(got, nullptr) << "seed " << seed << " line " << line;
            EXPECT_EQ(got->sharers, want->sharers) << "line " << line;
            EXPECT_EQ(got->owner, want->owner) << "line " << line;
            EXPECT_EQ(got->exclusiveClean, want->exclusiveClean)
                << "line " << line;
            ASSERT_TRUE(filterHonest(dragon, line)) << "seed " << seed;
        }
    }
}

// ---------------------------------------------------------------------
// The filter: one directed case per transition that revokes a right
// ---------------------------------------------------------------------

TEST(PrivateHitFilter, MesiRemoteReadOfModifiedLineDemotesOwner)
{
    MesiDirectory mesi(4);
    const std::uint64_t line = mesi.lineOf(0x1000);
    EXPECT_EQ(mesi.access(0, 0x1000, true, false), AccessOutcome::MemMiss);
    EXPECT_TRUE(mesi.privateHit(0, line, true)); // M, owned
    EXPECT_EQ(mesi.access(1, 0x1000, false, true), AccessOutcome::HitmLoad);
    // Both hold the line Shared now: either may read, neither write.
    EXPECT_TRUE(mesi.privateHit(0, line, false));
    EXPECT_FALSE(mesi.privateHit(0, line, true));
    EXPECT_TRUE(mesi.privateHit(1, line, false));
    EXPECT_FALSE(mesi.privateHit(1, line, true));
    EXPECT_EQ(mesi.access(0, 0x1000, true, false), AccessOutcome::Upgrade);
}

TEST(PrivateHitFilter, MesiRemoteWriteToSharedLineRevokesSharers)
{
    MesiDirectory mesi(4);
    const std::uint64_t line = mesi.lineOf(0x1000);
    mesi.access(0, 0x1000, false, true);
    mesi.access(1, 0x1000, false, true);
    EXPECT_TRUE(mesi.privateHit(0, line, false));
    EXPECT_TRUE(mesi.privateHit(1, line, false));
    EXPECT_EQ(mesi.access(2, 0x1000, true, false), AccessOutcome::RfoShared);
    EXPECT_FALSE(mesi.privateHit(0, line, false));
    EXPECT_FALSE(mesi.privateHit(1, line, false));
    EXPECT_TRUE(mesi.privateHit(2, line, true));
    EXPECT_EQ(mesi.access(0, 0x1000, false, true), AccessOutcome::HitmLoad);
}

TEST(PrivateHitFilter, SilentExclusiveWriteReachesTheBackend)
{
    // An E line's first write is a state change (E -> M) that the
    // backend must see, under both protocols.
    for (const ProtocolKind kind :
         {ProtocolKind::Mesi, ProtocolKind::Dragon}) {
        const auto proto = makeProtocol(kind, 4);
        const std::uint64_t line = proto->lineOf(0x1000);
        EXPECT_EQ(proto->access(0, 0x1000, false, true),
                  AccessOutcome::MemMiss); // E
        EXPECT_TRUE(proto->privateHit(0, line, false)) << protocolName(kind);
        EXPECT_FALSE(proto->privateHit(0, line, true)) << protocolName(kind);
        EXPECT_EQ(proto->access(0, 0x1000, true, false),
                  AccessOutcome::L1Hit);
        EXPECT_TRUE(proto->privateHit(0, line, true)) << protocolName(kind);
        // The write made the line dirty: a remote read is a HITM.
        EXPECT_EQ(proto->access(1, 0x1000, false, true),
                  AccessOutcome::HitmLoad)
            << protocolName(kind);
    }
}

TEST(PrivateHitFilter, DragonSharerJoiningOwnedLineDemotesOwner)
{
    DragonBus dragon(4);
    const std::uint64_t line = dragon.lineOf(0x1000);
    dragon.access(0, 0x1000, true, false); // M at core 0
    EXPECT_TRUE(dragon.privateHit(0, line, true));
    EXPECT_EQ(dragon.access(1, 0x1000, false, true),
              AccessOutcome::HitmLoad);
    // Core 0 still owns the line (Sm) but no longer alone: its writes
    // are bus updates now.
    EXPECT_TRUE(dragon.privateHit(0, line, false));
    EXPECT_FALSE(dragon.privateHit(0, line, true));
    EXPECT_TRUE(dragon.privateHit(1, line, false));
    EXPECT_EQ(dragon.access(0, 0x1000, true, false), AccessOutcome::Upgrade);
    EXPECT_EQ(dragon.busUpdates(), 1u);
}

TEST(PrivateHitFilter, SlotCollisionCostsOneBackendCall)
{
    MesiDirectory mesi(4);
    const std::uint64_t bytes = mesi.lineBytes();
    const std::uint64_t a = 0x1000;
    const std::uint64_t b = a + CoherenceProtocol::kFilterSlots * bytes;
    ASSERT_EQ(&mesi.filterEntry(0, mesi.lineOf(a)),
              &mesi.filterEntry(0, mesi.lineOf(b)));
    mesi.access(0, a, true, false);
    mesi.access(0, b, true, false);
    EXPECT_FALSE(mesi.privateHit(0, mesi.lineOf(a), false));
    EXPECT_TRUE(mesi.privateHit(0, mesi.lineOf(b), true));
    // The backend still holds a: the call answers L1Hit and re-grants.
    EXPECT_EQ(mesi.access(0, a, true, false), AccessOutcome::L1Hit);
    EXPECT_TRUE(mesi.privateHit(0, mesi.lineOf(a), true));
}

// ---------------------------------------------------------------------
// Dragon transition semantics
// ---------------------------------------------------------------------

TEST(Dragon, DirtyInterventionIsHitmAndKeepsOwnership)
{
    DragonBus dragon(4);
    EXPECT_EQ(dragon.access(0, 0x1000, true, false),
              AccessOutcome::MemMiss); // first touch installs M
    // Remote read: the M holder supplies the line (HITM) and keeps it
    // dirty as Sm — no writeback, unlike MESI.
    EXPECT_EQ(dragon.access(1, 0x1000, false, true),
              AccessOutcome::HitmLoad);
    const DragonBus::LineInfo *li = dragon.probe(dragon.lineOf(0x1000));
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->owner, 0);
    EXPECT_EQ(li->sharers, 0b11u);
    // A second reader is served by the Sm owner again: another HITM.
    EXPECT_EQ(dragon.access(2, 0x1000, false, true),
              AccessOutcome::HitmLoad);
}

TEST(Dragon, WritesUpdateInsteadOfInvalidating)
{
    DragonBus dragon(4);
    dragon.access(0, 0x1000, true, false); // M at core 0
    dragon.access(1, 0x1000, false, true); // core 1 joins (HITM)
    // Core 0 writes its shared-dirty copy: bus update, not invalidate.
    EXPECT_EQ(dragon.access(0, 0x1000, true, false),
              AccessOutcome::Upgrade);
    EXPECT_EQ(dragon.busUpdates(), 1u);
    // Core 1's copy stayed valid: its next read is a plain L1 hit.
    EXPECT_EQ(dragon.access(1, 0x1000, false, true),
              AccessOutcome::L1Hit);
}

TEST(Dragon, SilentCleanExclusiveUpgrade)
{
    DragonBus dragon(4);
    EXPECT_EQ(dragon.access(0, 0x1000, false, true),
              AccessOutcome::MemMiss); // E
    // E -> M without any bus traffic.
    EXPECT_EQ(dragon.access(0, 0x1000, true, false),
              AccessOutcome::L1Hit);
    EXPECT_EQ(dragon.busUpdates(), 0u);
    const DragonBus::LineInfo *li = dragon.probe(dragon.lineOf(0x1000));
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->owner, 0);
    // The dirty copy now services a remote miss cache-to-cache.
    EXPECT_EQ(dragon.access(1, 0x1000, false, true),
              AccessOutcome::HitmLoad);
}

TEST(Dragon, FalseSharingPingPongHitmsOnlyOnFirstTouch)
{
    // The robustness observation the protocol sweep quantifies: under
    // MESI a false-sharing write ping-pong HITMs forever; under Dragon
    // only each core's first touch does — then writes become updates.
    DragonBus dragon(2);
    MesiDirectory mesi(2);
    int dragon_hitms = 0;
    int mesi_hitms = 0;
    for (int round = 0; round < 10; ++round) {
        for (int core = 0; core < 2; ++core) {
            const std::uint64_t addr = 0x1000 + 8 * core;
            dragon_hitms +=
                isHitm(dragon.access(core, addr, true, false)) ? 1 : 0;
            mesi_hitms +=
                isHitm(mesi.access(core, addr, true, false)) ? 1 : 0;
        }
    }
    EXPECT_EQ(dragon_hitms, 1); // core 1's first write only
    EXPECT_GT(mesi_hitms, 10);  // every post-first-round write
    EXPECT_GT(dragon.busUpdates(), 10u);
}

TEST(Dragon, WriteMissToDirtyLineIsHitmStore)
{
    DragonBus dragon(2);
    dragon.access(0, 0x1000, true, false);
    // Pure-store write miss to the dirty line: HitmStore (imprecise
    // PEBS flavour); an RMW (load-class) would be HitmLoad.
    EXPECT_EQ(dragon.access(1, 0x1000, true, false),
              AccessOutcome::HitmStore);
    const DragonBus::LineInfo *li = dragon.probe(dragon.lineOf(0x1000));
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->owner, 1); // writer took ownership (Sm)
    EXPECT_EQ(li->sharers, 0b11u);
}

TEST(Dragon, WriteMissWithCleanCopiesIsRfoShared)
{
    DragonBus dragon(4);
    dragon.access(0, 0x1000, false, true);
    dragon.access(1, 0x1000, false, true); // two clean sharers
    EXPECT_EQ(dragon.access(2, 0x1000, true, false),
              AccessOutcome::RfoShared);
    // The clean copies stayed valid.
    EXPECT_EQ(dragon.access(0, 0x1000, false, true),
              AccessOutcome::L1Hit);
}

// ---------------------------------------------------------------------
// Invariant property fuzz over both protocols
// ---------------------------------------------------------------------

TEST(ProtocolInvariants, HoldUnderRandomInterleavings)
{
    for (const ProtocolKind kind :
         {ProtocolKind::Mesi, ProtocolKind::Dragon}) {
        for (const auto &[seed, cores] : seedsAndCores({3, 99, 2016})) {
            std::mt19937_64 rng(seed);
            const auto proto = makeProtocol(kind, cores);
            for (int i = 0; i < 30000; ++i) {
                const int core = static_cast<int>(rng() % cores);
                const std::uint64_t addr = (rng() % 128) * 4;
                const bool is_write = (rng() & 1) != 0;
                const bool is_load_class = !is_write || (rng() & 1) != 0;
                const std::uint64_t line = proto->lineOf(addr);
                const bool skipped = proto->privateHit(core, line, is_write);
                filteredAccess(*proto, core, addr, is_write, is_load_class);
                ASSERT_TRUE(
                    filterHonest(*proto, line, skipped ? -1 : core))
                    << protocolName(kind) << " seed " << seed << " cores "
                    << cores << " step " << i;
                if (i % 512 == 0) {
                    ASSERT_TRUE(proto->checkInvariants())
                        << protocolName(kind) << " seed " << seed
                        << " cores " << cores << " step " << i;
                }
            }
            EXPECT_TRUE(proto->checkInvariants())
                << protocolName(kind) << " seed " << seed << " cores "
                << cores;
            EXPECT_GT(proto->linesTouched(), 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Geometry: line indexing
// ---------------------------------------------------------------------

TEST(Geometry, ValidityBounds)
{
    CacheGeometry g;
    EXPECT_TRUE(g.valid());
    g.lineBytes = 32;
    EXPECT_TRUE(g.valid());
    g.lineBytes = 128;
    EXPECT_TRUE(g.valid());
    g.lineBytes = 256; // would overflow HitmEvent::accessSize
    EXPECT_FALSE(g.valid());
    g.lineBytes = 48;
    EXPECT_FALSE(g.valid());
    g.lineBytes = 4;
    EXPECT_FALSE(g.valid());
}

TEST(Geometry, LineIndexingFollowsLineSize)
{
    CacheGeometry narrow;
    narrow.lineBytes = 32;
    const auto mesi = makeProtocol(ProtocolKind::Mesi, 4, narrow);
    EXPECT_EQ(mesi->lineBytes(), 32u);
    EXPECT_EQ(mesi->lineOf(0x1000), 0x1000u >> 5);
    EXPECT_NE(mesi->lineOf(0x1000), mesi->lineOf(0x1020));

    CacheGeometry wide;
    wide.lineBytes = 128;
    const auto dragon = makeProtocol(ProtocolKind::Dragon, 4, wide);
    EXPECT_EQ(dragon->lineBytes(), 128u);
    EXPECT_EQ(dragon->lineOf(0x1000), dragon->lineOf(0x1060));
    EXPECT_NE(dragon->lineOf(0x1000), dragon->lineOf(0x1080));
}

TEST(Geometry, InvalidGeometryFallsBackToDefault)
{
    CacheGeometry bad;
    bad.lineBytes = 48;
    const auto proto = makeProtocol(ProtocolKind::Mesi, 4, bad);
    EXPECT_EQ(proto->lineBytes(), 64u);
}

// ---------------------------------------------------------------------
// Factory / naming
// ---------------------------------------------------------------------

TEST(ProtocolFactory, MakesRequestedKind)
{
    EXPECT_EQ(makeProtocol(ProtocolKind::Mesi, 4)->kind(),
              ProtocolKind::Mesi);
    EXPECT_EQ(makeProtocol(ProtocolKind::Dragon, 4)->kind(),
              ProtocolKind::Dragon);
}

TEST(ProtocolFactory, ParsesNames)
{
    ProtocolKind kind = ProtocolKind::Mesi;
    EXPECT_TRUE(parseProtocol("dragon", &kind));
    EXPECT_EQ(kind, ProtocolKind::Dragon);
    EXPECT_TRUE(parseProtocol("mesi", &kind));
    EXPECT_EQ(kind, ProtocolKind::Mesi);
    kind = ProtocolKind::Dragon;
    EXPECT_FALSE(parseProtocol("moesi", &kind));
    EXPECT_EQ(kind, ProtocolKind::Dragon); // left alone on failure
    EXPECT_STREQ(protocolName(ProtocolKind::Mesi), "mesi");
    EXPECT_STREQ(protocolName(ProtocolKind::Dragon), "dragon");
}

// ---------------------------------------------------------------------
// Machine integration: protocol selection changes the HITM population
// ---------------------------------------------------------------------

TEST(MachineProtocol, DragonStarvesTheHitmSignal)
{
    const workloads::WorkloadDef *def =
        workloads::findWorkload("histogram'");
    ASSERT_NE(def, nullptr);

    const auto runWith = [&](ProtocolKind kind) {
        workloads::WorkloadBuild build = def->build({});
        MachineConfig mc;
        mc.protocol = kind;
        Machine machine(std::move(build.program), mc);
        build.applyTo(machine);
        return machine.run();
    };

    const MachineStats mesi = runWith(ProtocolKind::Mesi);
    const MachineStats dragon = runWith(ProtocolKind::Dragon);
    EXPECT_GT(mesi.hitmTotal(), 0u);
    // The update fabric converts the write ping-pong into bus updates:
    // the HITM population collapses (the detection-robustness result).
    EXPECT_LT(dragon.hitmTotal() * 10, mesi.hitmTotal());
}

} // namespace
} // namespace laser::sim
