/**
 * @file
 * Unit and property tests for the simulator: MESI outcomes and invariants,
 * interpreter semantics, HITM generation, SSB behaviour and TSO
 * visibility, machine determinism, and golden digests of runs cut short
 * by the maxInstructions guard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>

#include "isa/assembler.h"
#include "machine_digest.h"
#include "sim/coherence.h"
#include "sim/machine.h"
#include "sim/ssb.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace laser::sim {
namespace {

using isa::Asm;
using isa::LibFn;
using isa::Op;
using namespace laser::isa; // register names

// ---------------------------------------------------------------------
// CoherenceDirectory
// ---------------------------------------------------------------------

TEST(Coherence, FirstTouchIsMemMiss)
{
    CoherenceDirectory dir(4);
    EXPECT_EQ(dir.access(0, 0x1000, false, true), AccessOutcome::MemMiss);
    EXPECT_EQ(dir.access(1, 0x2000, true, false), AccessOutcome::MemMiss);
}

TEST(Coherence, RepeatAccessHits)
{
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, false, true);
    EXPECT_EQ(dir.access(0, 0x1000, false, true), AccessOutcome::L1Hit);
    // E -> M silently on local write.
    EXPECT_EQ(dir.access(0, 0x1000, true, false), AccessOutcome::L1Hit);
    EXPECT_EQ(dir.access(0, 0x1000, true, false), AccessOutcome::L1Hit);
}

TEST(Coherence, RemoteReadOfModifiedIsHitmLoad)
{
    // Figure 1a: remote write then local read.
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1000, false, true), AccessOutcome::HitmLoad);
    // After the HITM both cores share the line.
    EXPECT_EQ(dir.access(0, 0x1000, false, true), AccessOutcome::L1Hit);
    EXPECT_EQ(dir.access(1, 0x1000, false, true), AccessOutcome::L1Hit);
}

TEST(Coherence, RemoteWriteOfModifiedIsHitmStore)
{
    // Figure 1c: remote write then local write (pure store).
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1000, true, false), AccessOutcome::HitmStore);
}

TEST(Coherence, RmwOfRemoteModifiedIsHitmLoad)
{
    // An RMW contains a load uop, so its HITM is load-class and PEBS
    // reports it precisely (Section 3.1).
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1000, true, true), AccessOutcome::HitmLoad);
}

TEST(Coherence, ReadSharedThenWriteIsUpgrade)
{
    // Figure 1b: remote read then local write.
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, false, true);
    dir.access(1, 0x1000, false, true);
    EXPECT_EQ(dir.access(0, 0x1000, true, false), AccessOutcome::Upgrade);
    // The other core lost its copy; its next read is a HITM.
    EXPECT_EQ(dir.access(1, 0x1000, false, true), AccessOutcome::HitmLoad);
}

TEST(Coherence, WriteToRemoteCleanIsRfoNotHitm)
{
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, false, true); // E in core 0
    EXPECT_EQ(dir.access(1, 0x1000, true, false), AccessOutcome::RfoShared);
}

TEST(Coherence, ReadReadSharingNeverHitms)
{
    CoherenceDirectory dir(4);
    for (int c = 0; c < 4; ++c) {
        const auto out = dir.access(c, 0x4000, false, true);
        EXPECT_NE(out, AccessOutcome::HitmLoad);
        EXPECT_NE(out, AccessOutcome::HitmStore);
    }
}

TEST(Coherence, DistinctLinesAreIndependent)
{
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1040, true, false), AccessOutcome::MemMiss);
    EXPECT_EQ(dir.lineOf(0x1000), dir.lineOf(0x103f));
    EXPECT_NE(dir.lineOf(0x1000), dir.lineOf(0x1040));
}

/** Property: MESI invariants hold under random access streams. */
class CoherenceProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CoherenceProperty, InvariantsUnderRandomTraffic)
{
    laser::Rng rng(GetParam());
    CoherenceDirectory dir(4);
    for (int i = 0; i < 20000; ++i) {
        const int core = static_cast<int>(rng.below(4));
        const std::uint64_t addr = 0x1000 + rng.below(32) * 8;
        const bool is_write = rng.chance(0.4);
        const bool load_class = !is_write || rng.chance(0.5);
        dir.access(core, addr, is_write, load_class);
        if (i % 512 == 0) {
            ASSERT_TRUE(dir.checkInvariants()) << "iteration " << i;
        }
    }
    EXPECT_TRUE(dir.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// SoftwareStoreBuffer
// ---------------------------------------------------------------------

TEST(Ssb, PutThenGetFull)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1000, 8, 0xdeadbeefcafef00dULL, 1);
    std::uint64_t v = 0;
    ASSERT_TRUE(ssb.getFull(0x1000, 8, &v));
    EXPECT_EQ(v, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(ssb.entryCount(), 1u);
}

TEST(Ssb, PartialOverlapIsNotFull)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1000, 4, 0xaabbccdd, 1);
    std::uint64_t v = 0;
    EXPECT_FALSE(ssb.getFull(0x1000, 8, &v));
    EXPECT_TRUE(ssb.containsAny(0x1000, 8));
    EXPECT_TRUE(ssb.getFull(0x1000, 4, &v));
    EXPECT_EQ(v, 0xaabbccddu);
}

TEST(Ssb, MergeOverlaysBufferedBytes)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1002, 2, 0xbeef, 1);
    const std::uint64_t merged =
        ssb.merge(0x1000, 8, 0x1111111111111111ULL);
    EXPECT_EQ(merged, 0x11111111beef1111ULL);
}

TEST(Ssb, UnalignedStoreSpansChunks)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1006, 4, 0xaabbccdd, 1); // crosses the 8-byte boundary
    EXPECT_EQ(ssb.entryCount(), 2u);
    std::uint64_t v = 0;
    ASSERT_TRUE(ssb.getFull(0x1006, 4, &v));
    EXPECT_EQ(v, 0xaabbccddu);
}

TEST(Ssb, CoalescingKeepsLastValue)
{
    SoftwareStoreBuffer ssb;
    for (std::uint64_t i = 0; i < 1000; ++i)
        ssb.put(0x1000, 8, i, i + 1);
    EXPECT_EQ(ssb.entryCount(), 1u); // space efficiency (Section 5.5)
    EXPECT_EQ(ssb.totalPuts(), 1000u);
    std::uint64_t v = 0;
    ASSERT_TRUE(ssb.getFull(0x1000, 8, &v));
    EXPECT_EQ(v, 999u);
    auto drained = ssb.drain();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].minSeq, 1u);
    EXPECT_EQ(drained[0].maxSeq, 1000u);
    EXPECT_TRUE(ssb.empty());
}

TEST(Ssb, FifoKeepsOneEntryPerStore)
{
    SoftwareStoreBuffer ssb(SsbMode::Fifo);
    for (std::uint64_t i = 0; i < 100; ++i)
        ssb.put(0x1000, 8, i, i + 1);
    EXPECT_EQ(ssb.entryCount(), 100u);
    auto drained = ssb.drain();
    EXPECT_EQ(drained.size(), 100u);
    // Drained in program order.
    EXPECT_EQ(drained.front().minSeq, 1u);
    EXPECT_EQ(drained.back().minSeq, 100u);
    EXPECT_TRUE(ssb.empty());
}

TEST(Ssb, DrainAppliesLatestBytes)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1000, 8, 0x1111111111111111ULL, 1);
    ssb.put(0x1004, 4, 0x22222222u, 2);
    auto drained = ssb.drain();
    ASSERT_EQ(drained.size(), 1u);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(drained[0].bytes[i]) << (8 * i);
    EXPECT_EQ(v, 0x2222222211111111ULL);
    EXPECT_EQ(drained[0].validMask, 0xff);
}

/**
 * Byte-wise reference store buffer: one map entry per buffered byte,
 * holding its latest value and the lowest and highest sequence number
 * stored to it since the last drain. A coalescing drain entry is the
 * union of its chunk's bytes; a FIFO drain replays the store log one
 * chunk piece at a time.
 */
class ByteReferenceSsb
{
  public:
    explicit ByteReferenceSsb(SsbMode mode) : mode_(mode) {}

    void
    put(std::uint64_t addr, int size, std::uint64_t value,
        std::uint64_t seq)
    {
        for (int i = 0; i < size; ++i) {
            auto [it, fresh] = bytes_.try_emplace(addr + i);
            RefByte &b = it->second;
            b.value = std::uint8_t(value >> (8 * i));
            b.minSeq = fresh ? seq : std::min(b.minSeq, seq);
            b.maxSeq = fresh ? seq : std::max(b.maxSeq, seq);
        }
        if (mode_ == SsbMode::Fifo)
            log_.push_back({addr, size, value, seq});
    }

    bool
    getFull(std::uint64_t addr, int size, std::uint64_t *value) const
    {
        std::uint64_t out = 0;
        for (int i = 0; i < size; ++i) {
            auto it = bytes_.find(addr + i);
            if (it == bytes_.end())
                return false;
            out |= std::uint64_t(it->second.value) << (8 * i);
        }
        *value = out;
        return true;
    }

    bool
    containsAny(std::uint64_t addr, int size) const
    {
        for (int i = 0; i < size; ++i) {
            if (bytes_.count(addr + i))
                return true;
        }
        return false;
    }

    std::uint64_t
    merge(std::uint64_t addr, int size, std::uint64_t mem_value) const
    {
        for (int i = 0; i < size; ++i) {
            auto it = bytes_.find(addr + i);
            if (it == bytes_.end())
                continue;
            mem_value &= ~(std::uint64_t(0xff) << (8 * i));
            mem_value |= std::uint64_t(it->second.value) << (8 * i);
        }
        return mem_value;
    }

    std::size_t
    entryCount() const
    {
        if (mode_ == SsbMode::Fifo)
            return log_.size();
        std::set<std::uint64_t> chunks;
        for (const auto &[a, b] : bytes_)
            chunks.insert(a >> 3);
        return chunks.size();
    }

    std::vector<SsbDrainEntry>
    drain()
    {
        std::vector<SsbDrainEntry> out;
        if (mode_ == SsbMode::Fifo) {
            for (const Store &s : log_) {
                for (int i = 0; i < s.size; ++i) {
                    const std::uint64_t a = s.addr + i;
                    if (out.empty() || i == 0 || (a & 7) == 0) {
                        out.emplace_back();
                        out.back().addr = a & ~7ULL;
                        out.back().minSeq = out.back().maxSeq = s.seq;
                    }
                    out.back().validMask |= std::uint8_t(1u << (a & 7));
                    out.back().bytes[a & 7] =
                        std::uint8_t(s.value >> (8 * i));
                }
            }
        } else {
            for (const auto &[a, b] : bytes_) {
                if (out.empty() || out.back().addr != (a & ~7ULL)) {
                    out.emplace_back();
                    out.back().addr = a & ~7ULL;
                    out.back().minSeq = b.minSeq;
                    out.back().maxSeq = b.maxSeq;
                }
                SsbDrainEntry &e = out.back();
                e.validMask |= std::uint8_t(1u << (a & 7));
                e.bytes[a & 7] = b.value;
                e.minSeq = std::min(e.minSeq, b.minSeq);
                e.maxSeq = std::max(e.maxSeq, b.maxSeq);
            }
        }
        bytes_.clear();
        log_.clear();
        return out;
    }

  private:
    struct RefByte
    {
        std::uint8_t value = 0;
        std::uint64_t minSeq = 0;
        std::uint64_t maxSeq = 0;
    };
    struct Store
    {
        std::uint64_t addr;
        int size;
        std::uint64_t value;
        std::uint64_t seq;
    };

    SsbMode mode_;
    std::map<std::uint64_t, RefByte> bytes_;
    std::vector<Store> log_;
};

TEST(Ssb, WordWiseMatchesByteReference)
{
    // Seeded random operations at every alignment of a 64-byte window,
    // so many accesses span two chunks; random (not increasing) store
    // sequence numbers exercise the per-slot min/max.
    constexpr int kSizes[] = {1, 2, 4, 8};
    constexpr std::uint64_t kBase = 0x7ff8;
    for (SsbMode mode : {SsbMode::Coalescing, SsbMode::Fifo}) {
        SCOPED_TRACE(mode == SsbMode::Fifo ? "fifo" : "coalescing");
        laser::Rng rng(0x55b);
        SoftwareStoreBuffer ssb(mode);
        ByteReferenceSsb ref(mode);
        int drains = 0;
        for (int op = 0; op < 20000; ++op) {
            const int size = kSizes[rng.below(4)];
            const std::uint64_t addr = kBase + rng.below(64 - size + 1);
            const std::uint64_t r = rng.below(100);
            if (r < 40) {
                const std::uint64_t value = rng();
                const std::uint64_t seq = 1 + rng.below(1000);
                ssb.put(addr, size, value, seq);
                ref.put(addr, size, value, seq);
            } else if (r < 60) {
                std::uint64_t got = 0xabababababababab;
                std::uint64_t want = 0xabababababababab;
                ASSERT_EQ(ssb.getFull(addr, size, &got),
                          ref.getFull(addr, size, &want))
                    << "op " << op;
                ASSERT_EQ(got, want) << "op " << op;
            } else if (r < 75) {
                ASSERT_EQ(ssb.containsAny(addr, size),
                          ref.containsAny(addr, size))
                    << "op " << op;
            } else if (r < 98) {
                const std::uint64_t mem = rng();
                ASSERT_EQ(ssb.merge(addr, size, mem),
                          ref.merge(addr, size, mem))
                    << "op " << op;
            } else {
                ++drains;
                const std::vector<SsbDrainEntry> got = ssb.drain();
                const std::vector<SsbDrainEntry> want = ref.drain();
                ASSERT_EQ(got.size(), want.size()) << "op " << op;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_EQ(got[i].addr, want[i].addr) << "op " << op;
                    ASSERT_EQ(got[i].validMask, want[i].validMask)
                        << "op " << op;
                    ASSERT_TRUE(std::equal(std::begin(got[i].bytes),
                                           std::end(got[i].bytes),
                                           std::begin(want[i].bytes)))
                        << "op " << op;
                    ASSERT_EQ(got[i].minSeq, want[i].minSeq) << "op " << op;
                    ASSERT_EQ(got[i].maxSeq, want[i].maxSeq) << "op " << op;
                }
            }
            ASSERT_EQ(ssb.entryCount(), ref.entryCount()) << "op " << op;
            ASSERT_EQ(ssb.empty(), ref.entryCount() == 0) << "op " << op;
        }
        EXPECT_GT(drains, 100);
    }
}

// ---------------------------------------------------------------------
// Machine execution
// ---------------------------------------------------------------------

/** Build a single-thread program where only thread 0 does work. */
isa::Program
tidGate(const std::function<void(Asm &)> &body)
{
    Asm a("t");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    body(a);
    a.bind(done);
    a.halt();
    return a.finalize();
}

TEST(Machine, ArithmeticSemantics)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 6);
        a.movi(R3, 7);
        a.mul(R4, R2, R3);   // 42
        a.addi(R4, R4, 100); // 142
        a.subi(R4, R4, 2);   // 140
        a.shli(R5, R4, 1);   // 280
        a.shri(R5, R5, 2);   // 70
        a.xorr(R6, R4, R4);  // 0
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R4), 140);
    EXPECT_EQ(m.reg(0, R5), 70);
    EXPECT_EQ(m.reg(0, R6), 0);
}

TEST(Machine, RegisterZeroIsHardwired)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R0, 999);
        a.mov(R2, R0);
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R2), 0);
}

TEST(Machine, LoadStoreRoundTrip)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 0x1000100);
        a.movi(R3, 0x1234);
        a.store(R2, 0, R3, 8);
        a.load(R4, R2, 0, 8);
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R4), 0x1234);
    EXPECT_EQ(m.memory().read(0x1000100, 8), 0x1234u);
}

TEST(Machine, LoopsTerminate)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 100);
        a.movi(R3, 0);
        Asm::Label loop = a.here();
        a.addi(R3, R3, 2);
        a.subi(R2, R2, 1);
        a.bne(R2, R0, loop);
    });
    Machine m(p);
    MachineStats s = m.run();
    EXPECT_EQ(m.reg(0, R3), 200);
    EXPECT_FALSE(s.truncated);
    EXPECT_GT(s.cycles, 0u);
}

TEST(Machine, CasSucceedsAndFails)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 0x1000200);
        // CAS expecting 0: succeeds, writes 5.
        a.movi(R4, 5);
        a.cas(R4, R2, 0, R0);
        a.mov(R5, R4); // old value (0)
        // CAS expecting 0 again: fails (memory holds 5).
        a.movi(R4, 9);
        a.cas(R4, R2, 0, R0);
        a.mov(R6, R4); // old value (5)
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R5), 0);
    EXPECT_EQ(m.reg(0, R6), 5);
    EXPECT_EQ(m.memory().read(0x1000200, 8), 5u);
}

TEST(Machine, FetchAddAccumulates)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 0x1000300);
        a.movi(R3, 10);
        a.fetchadd(R4, R2, 0, R3); // old 0
        a.fetchadd(R5, R2, 0, R3); // old 10
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R4), 0);
    EXPECT_EQ(m.reg(0, R5), 10);
    EXPECT_EQ(m.memory().read(0x1000300, 8), 20u);
}

TEST(Machine, TidDistinguishesThreads)
{
    Asm a("t");
    a.tid(R1);
    a.movi(R2, 0x1000400);
    a.muli(R3, R1, 8);
    a.add(R2, R2, R3);
    a.movi(R4, 1);
    a.store(R2, 0, R4, 8);
    a.halt();
    Machine m(a.finalize());
    m.run();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(m.memory().read(0x1000400 + 8 * t, 8), 1u);
}

TEST(Machine, CallAndRetThroughLibrary)
{
    Asm a("t");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R12, 0x1000500);
    a.callLib(LibFn::SpinLock);
    a.movi(R2, 77);
    a.callLib(LibFn::Unlock);
    a.bind(done);
    a.halt();
    Machine m(a.finalize());
    m.run();
    EXPECT_EQ(m.reg(0, R2), 77);
    // Lock released.
    EXPECT_EQ(m.memory().read(0x1000500, 8), 0u);
}

TEST(Machine, BarrierReleasesAllThreads)
{
    Asm a("t");
    // Barrier object at globals base: counter, generation, nthreads.
    const std::uint64_t bar = 0x600000;
    a.movi(R12, static_cast<std::int64_t>(bar));
    a.callLib(LibFn::BarrierWait);
    // After the barrier every thread bumps its own flag.
    a.tid(R1);
    a.movi(R2, 0x1000600);
    a.muli(R3, R1, 8);
    a.add(R2, R2, R3);
    a.movi(R4, 1);
    a.store(R2, 0, R4, 8);
    a.halt();
    isa::Program p = a.finalize();
    Machine m(p);
    m.memory().write(bar + 16, 8, 4); // nthreads
    MachineStats s = m.run();
    EXPECT_FALSE(s.truncated);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(m.memory().read(0x1000600 + 8 * t, 8), 1u);
    EXPECT_EQ(s.syncOps, 4u); // one barrier arrival per thread
}

// ---------------------------------------------------------------------
// HITM generation
// ---------------------------------------------------------------------

/** Sink that counts HITM events and remembers their flavour. */
struct CountingSink : PmuSink
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t
    onHitm(const HitmEvent &ev) override
    {
        if (ev.isLoadUop)
            ++loads;
        else
            ++stores;
        return 0;
    }
};

/** Two threads ping-pong writes to the same line: write-write sharing. */
isa::Program
writeWriteSharing(int iters, std::int64_t addr0, std::int64_t addr1)
{
    Asm a("ww");
    Asm::Label t1 = a.newLabel();
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.movi(R9, 1);
    a.bne(R1, R0, t1);
    // Thread 0 writes addr0.
    a.movi(R2, addr0);
    a.movi(R3, iters);
    Asm::Label l0 = a.here();
    a.store(R2, 0, R3, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, l0);
    a.jmp(done);
    // Thread 1 writes addr1.
    a.bind(t1);
    a.bne(R1, R9, done); // threads 2..3 idle
    a.movi(R2, addr1);
    a.movi(R3, iters);
    Asm::Label l1 = a.here();
    a.store(R2, 0, R3, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, l1);
    a.bind(done);
    a.halt();
    return a.finalize();
}

TEST(Machine, FalseSharingGeneratesStoreHitms)
{
    // Two variables in one line: false sharing, pure stores.
    CountingSink sink;
    Machine m(writeWriteSharing(2000, 0x1000800, 0x1000808));
    m.setPmuSink(&sink);
    MachineStats s = m.run();
    EXPECT_GT(s.hitmStores, 500u);
    EXPECT_EQ(s.hitmLoads, sink.loads);
    EXPECT_EQ(s.hitmStores, sink.stores);
    EXPECT_GT(sink.stores, sink.loads);
}

TEST(Machine, PaddedVariablesGenerateNoHitms)
{
    // Same program, variables on distinct lines: padding fixed it.
    CountingSink sink;
    Machine m(writeWriteSharing(2000, 0x1000800, 0x1000880));
    m.setPmuSink(&sink);
    MachineStats s = m.run();
    EXPECT_EQ(s.hitmTotal(), 0u);
    EXPECT_EQ(sink.loads + sink.stores, 0u);
}

TEST(Machine, ContendedRunIsSlowerThanPadded)
{
    Machine contended(writeWriteSharing(5000, 0x1000800, 0x1000808));
    Machine padded(writeWriteSharing(5000, 0x1000800, 0x1000880));
    const auto slow = contended.run().cycles;
    const auto fast = padded.run().cycles;
    EXPECT_GT(slow, fast * 3 / 2); // contention costs real time
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto once = [] {
        Machine m(writeWriteSharing(3000, 0x1000800, 0x1000808));
        return m.run();
    };
    const MachineStats a = once();
    const MachineStats b = once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hitmStores, b.hitmStores);
    EXPECT_EQ(a.hitmLoads, b.hitmLoads);
}

// ---------------------------------------------------------------------
// SSB execution in the machine
// ---------------------------------------------------------------------

/** Mark all memory ops in [first, last] as SSB users. */
void
markSsb(isa::Program &p, std::uint32_t first, std::uint32_t last)
{
    for (std::uint32_t i = first; i <= last; ++i) {
        if (isa::opAccessesMemory(p.code[i].op))
            p.code[i].useSsb = true;
    }
}

TEST(Machine, SsbStoreInvisibleUntilFlush)
{
    Asm a("ssb");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000900);
    a.movi(R3, 42);
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    const std::uint32_t ld = a.load(R4, R2, 0, 8); // must see 42 via SSB
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, st, ld);

    Machine m(p);
    MachineStats s = m.run();
    EXPECT_EQ(m.reg(0, R4), 42);           // store-to-load forwarding
    EXPECT_EQ(s.ssbStores, 1u);
    EXPECT_EQ(s.ssbLoadHits, 1u);
    // run() drains buffers at exit, so memory is final.
    EXPECT_EQ(m.memory().read(0x1000900, 8), 42u);
}

TEST(Machine, SsbFlushedAtFence)
{
    Asm a("ssb");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000900);
    a.movi(R3, 7);
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    a.fence();
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, st, st);

    Machine m(p);
    MachineStats s = m.run();
    EXPECT_EQ(s.ssbFlushes, 1u);
    EXPECT_EQ(m.memory().read(0x1000900, 8), 7u);
}

TEST(Machine, SsbPreemptiveFlushAtCapacity)
{
    Asm a("ssb");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000900);
    a.movi(R3, 1);
    // 20 stores to distinct chunks: must pre-emptively flush at 8.
    std::uint32_t first = 0, last = 0;
    for (int i = 0; i < 20; ++i) {
        const std::uint32_t idx = a.store(R2, i * 8, R3, 8);
        if (i == 0)
            first = idx;
        last = idx;
    }
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, first, last);

    Machine m(p);
    MachineStats s = m.run();
    EXPECT_GE(s.ssbFlushes, 2u);
    EXPECT_LE(s.ssbMaxEntriesSeen, 9u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(m.memory().read(0x1000900 + 8 * i, 8), 1u);
}

TEST(Machine, SsbProgramMatchesPlainExecution)
{
    // Property: instrumenting a (single-threaded) region with the SSB
    // must not change architectural results (Section 5.2).
    auto build = [](bool instrument) {
        Asm a("prop");
        Asm::Label done = a.newLabel();
        a.tid(R1);
        a.bne(R1, R0, done);
        a.movi(R2, 0x1000a00);
        a.movi(R3, 50);
        a.movi(R5, 0);
        Asm::Label loop = a.here();
        const std::uint32_t first = a.store(R2, 0, R5, 8);
        a.addmem(R2, 8, R3, 8);
        a.load(R4, R2, 8, 8);
        const std::uint32_t last = a.load(R6, R2, 0, 8);
        a.add(R5, R5, R4);
        a.subi(R3, R3, 1);
        a.bne(R3, R0, loop);
        a.bind(done);
        a.halt();
        isa::Program p = a.finalize();
        if (instrument)
            markSsb(p, first, last);
        return p;
    };

    Machine plain(build(false));
    Machine ssb(build(true));
    plain.run();
    ssb.run();
    EXPECT_EQ(plain.reg(0, R5), ssb.reg(0, R5));
    EXPECT_EQ(plain.reg(0, R6), ssb.reg(0, R6));
    EXPECT_EQ(plain.memory().read(0x1000a00, 8),
              ssb.memory().read(0x1000a00, 8));
    EXPECT_EQ(plain.memory().read(0x1000a08, 8),
              ssb.memory().read(0x1000a08, 8));
}

TEST(Machine, TsoTraceGroupsAreContiguousAndOrdered)
{
    Asm a("tso");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000b00);
    a.movi(R3, 5);
    std::uint32_t first = 0, last = 0;
    Asm::Label loop = a.newLabel();
    a.bind(loop);
    first = a.store(R2, 0, R3, 8);
    a.store(R2, 8, R3, 8);
    last = a.store(R2, 16, R3, 8);
    a.fence();
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, first, last);

    MachineConfig cfg;
    cfg.recordTsoTrace = true;
    Machine m(p, cfg);
    m.run();

    // Per-thread visibility groups must cover contiguous, increasing
    // sequence ranges (TSO: stores become visible in program order, in
    // atomic groups).
    std::uint64_t prev_max[8] = {};
    for (const TsoEvent &ev : m.tsoTrace()) {
        ASSERT_LE(ev.minSeq, ev.maxSeq);
        ASSERT_EQ(ev.minSeq, prev_max[ev.tid] + 1)
            << "gap or reorder in thread " << ev.tid;
        prev_max[ev.tid] = ev.maxSeq;
    }
}

TEST(Machine, SheriffModeEliminatesHitms)
{
    MachineConfig cfg;
    cfg.threadsAsProcesses = true;
    Machine m(writeWriteSharing(2000, 0x1000800, 0x1000808), cfg);
    MachineStats s = m.run();
    EXPECT_EQ(s.hitmTotal(), 0u);
}

TEST(Machine, HeapPerturbationShiftsAllocations)
{
    isa::Program p = tidGate([](Asm &a) { a.nop(); });
    MachineConfig cfg;
    cfg.heapPerturbation = 48;
    Machine native(p);
    Machine shifted(p, cfg);
    EXPECT_EQ(native.heap().alloc(64) % 64, 16u);
    EXPECT_EQ(shifted.heap().alloc(64) % 64, 0u);
}

TEST(Machine, RejectsInvalidCacheGeometry)
{
    const isa::Program p = tidGate([](Asm &a) { a.nop(); });
    MachineConfig cfg;
    cfg.geometry.lineBytes = 48; // not a power of two
    EXPECT_THROW(Machine m(p, cfg), std::invalid_argument);
    cfg.geometry.lineBytes = 256; // would overflow HitmEvent::accessSize
    EXPECT_THROW(Machine m(p, cfg), std::invalid_argument);
    cfg.geometry.lineBytes = 128;
    EXPECT_NO_THROW(Machine m(p, cfg));
}

TEST(Machine, RejectsCoreCountOutsideSharerMask)
{
    // Sharer sets are 32-bit masks: core 32 would shift past the mask,
    // and zero cores would run nothing.
    const isa::Program p = tidGate([](Asm &a) { a.nop(); });
    MachineConfig cfg;
    for (int cores : {0, -1, 33, 64}) {
        cfg.numCores = cores;
        EXPECT_THROW(Machine m(p, cfg), std::invalid_argument) << cores;
    }
    cfg.numCores = kMaxCores;
    EXPECT_NO_THROW(Machine m(p, cfg));
}

// ---------------------------------------------------------------------
// Truncated runs: the maxInstructions guard
// ---------------------------------------------------------------------

constexpr std::uint64_t kTruncationLimits[] = {1,     7,      1000,  12345,
                                               54321, 100001, 250000};

struct TruncationGolden
{
    const char *workload;
    ProtocolKind protocol;
    std::uint64_t digest[std::size(kTruncationLimits)];
};

/**
 * Per-limit digests of a run stopped by maxInstructions: every
 * MachineStats field, all registers of every thread, and the ordered
 * onHitm / onMemop / onSync stream. Captured with a machine that made
 * one scheduling pick per instruction (the defining order), they pin
 * exactly which instructions a truncated run executes, so run-ahead past
 * the cut moves them.
 */
constexpr TruncationGolden kTruncationGoldens[] = {
    {"histogram'",
     ProtocolKind::Mesi,
     {0x79e13af7c1063d9fULL, 0x01427c414599f457ULL, 0x7da78046f1b5073cULL,
      0x5db5b5e6e6daa38dULL, 0x4b5232df4f19ed27ULL, 0xf12c2a0ac4cdd06eULL,
      0x68af7c4121b89b2aULL}},
    {"histogram'",
     ProtocolKind::Dragon,
     {0x79e13af7c1063d9fULL, 0x01427c414599f457ULL, 0xc1138972bff8a8c5ULL,
      0x19fe67fce07d04d3ULL, 0x5c7b4c65af8c55c7ULL, 0xe336e1351c539bcaULL,
      0xb52adc3debf7cd19ULL}},
    {"kmeans",
     ProtocolKind::Mesi,
     {0x79e13af7c1063d9fULL, 0x3e2ac2a7e76711d0ULL, 0xaa6b38414b8db8edULL,
      0x373e2746ebb133e8ULL, 0x3f99880a3ccdbed8ULL, 0xdb35a17c6e941b5aULL,
      0xd5e827725cca7029ULL}},
    {"kmeans",
     ProtocolKind::Dragon,
     {0x79e13af7c1063d9fULL, 0x3e2ac2a7e76711d0ULL, 0x3855a0bbc7cf8b4cULL,
      0xf93d0e7b3a7ed3e0ULL, 0xdf413cb892308467ULL, 0x9cd94567191ffe36ULL,
      0x1f05567869a3749aULL}},
    {"water_nsquared",
     ProtocolKind::Mesi,
     {0x79e13af7c1063d9fULL, 0x3ecab5773bdebed4ULL, 0xa3815de1f1567017ULL,
      0x20e8b488c4b5a9bfULL, 0x4716eb63585b9bb0ULL, 0x92a1a3d9374027acULL,
      0x7d0891d8183fffb6ULL}},
    {"water_nsquared",
     ProtocolKind::Dragon,
     {0x79e13af7c1063d9fULL, 0x3ecab5773bdebed4ULL, 0xa3815de1f1567017ULL,
      0xd96a7ec93b5183d3ULL, 0x25bff48305ec1b51ULL, 0x248132a8ad9763adULL,
      0xf347820c511606e6ULL}},
    {"x264",
     ProtocolKind::Mesi,
     {0x79e13af7c1063d9fULL, 0x149198ac35d06a53ULL, 0x715d79eb9cede0a6ULL,
      0x6d0eb4c13dddeabeULL, 0x17f54701f4d77621ULL, 0xa3724badcc7f4f86ULL,
      0xfd861e8406cf6b35ULL}},
    {"x264",
     ProtocolKind::Dragon,
     {0x79e13af7c1063d9fULL, 0x149198ac35d06a53ULL, 0x715d79eb9cede0a6ULL,
      0x2050473d1cfa32ccULL, 0x8747885480569387ULL, 0x08236ce2bd3018ebULL,
      0x1485c6a3547cadc7ULL}},
    {"lu_ncb",
     ProtocolKind::Mesi,
     {0x79e13af7c1063d9fULL, 0xd444c0fb63c3ed5aULL, 0x6c0aa405bbbaae60ULL,
      0x23290b02ab33ffdeULL, 0x5f82a28bed5f7d9eULL, 0x847adab7ff17b99eULL,
      0x95eb68ab7370e8fbULL}},
    {"lu_ncb",
     ProtocolKind::Dragon,
     {0x79e13af7c1063d9fULL, 0xd444c0fb63c3ed5aULL, 0x6c0aa405bbbaae60ULL,
      0xdc7ffbbd64633c95ULL, 0x2c9a9b9bfbc8059aULL, 0xc41f8c54ed09c252ULL,
      0x70a2ae84167b34a7ULL}},
    {"dedup",
     ProtocolKind::Mesi,
     {0x79e13af7c1063d9fULL, 0x320280a258f8d91bULL, 0xe9197fb157a0fbadULL,
      0x9c92b4b668c50bf3ULL, 0xe1c1877ab88d0b57ULL, 0x86b66170bb420a5eULL,
      0xf1be60550f3b68f1ULL}},
    {"dedup",
     ProtocolKind::Dragon,
     {0x79e13af7c1063d9fULL, 0x320280a258f8d91bULL, 0x69f561fcda1fbcfdULL,
      0x87ca997e24393d53ULL, 0xb4be66cd7d6574c8ULL, 0x1c847d57e3036a4fULL,
      0xa2addae0474dfd17ULL}},
};

std::uint64_t
truncatedRunDigest(const workloads::WorkloadBuild &build, ProtocolKind kind,
                   std::uint64_t max_instructions)
{
    MachineConfig mc;
    mc.protocol = kind;
    mc.maxInstructions = max_instructions;
    Machine machine(build.program, mc);
    build.applyTo(machine);
    StreamHashSink sink;
    machine.setPmuSink(&sink);
    const MachineStats stats = machine.run();
    EXPECT_LE(stats.instructions, max_instructions);
    EXPECT_EQ(stats.truncated, stats.instructions == max_instructions);

    Fnv64 h = sink.h;
    h.mix(statsDigest(stats));
    for (int tid = 0; tid < mc.numCores; ++tid) {
        for (isa::Reg r = 0; r < isa::kNumRegs; ++r)
            h.mix(static_cast<std::uint64_t>(machine.reg(tid, r)));
    }
    return h.hash;
}

TEST(Machine, TruncatedRunsMatchGoldens)
{
    for (const TruncationGolden &golden : kTruncationGoldens) {
        const workloads::WorkloadDef *def =
            workloads::findWorkload(golden.workload);
        ASSERT_NE(def, nullptr) << golden.workload;
        for (std::size_t i = 0; i < std::size(kTruncationLimits); ++i) {
            const std::uint64_t got = truncatedRunDigest(
                def->build({}), golden.protocol, kTruncationLimits[i]);
            EXPECT_EQ(got, golden.digest[i])
                << golden.workload << " "
                << protocolName(golden.protocol) << " maxInstructions="
                << kTruncationLimits[i] << " digest 0x" << std::hex
                << got;
        }
    }
}

/**
 * Four threads contend for a CAS spin lock around a critical section
 * that multiplies. A failed acquire backs off through a straight run of
 * pauses ending in the retry jump, so waiting threads run ahead over
 * multi-instruction blocks whose cost is dominated by pause cycles.
 */
isa::Program
spinLockContention()
{
    Asm a("spin");
    a.movi(R12, 0x1000900); // lock word
    a.movi(R2, 0x1000940);  // shared counter, its own line
    a.movi(R3, 8);          // critical sections per thread
    Asm::Label loop = a.here();
    Asm::Label retry = a.here();
    Asm::Label got = a.newLabel();
    a.movi(R13, 1);
    a.markSync(a.cas(R13, R12, 0, R0), SyncKind::LockAcquire);
    a.beq(R13, R0, got);
    for (int p = 0; p < 4; ++p)
        a.pause();
    a.jmp(retry);
    a.bind(got);
    a.load(R4, R2, 0, 8);
    a.muli(R4, R4, 3);
    a.addi(R4, R4, 1);
    a.store(R2, 0, R4, 8);
    a.markSync(a.store(R12, 0, R0, 8), SyncKind::LockRelease);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.halt();
    return a.finalize();
}

struct TruncationSweepGolden
{
    const char *program;
    ProtocolKind protocol;
    std::uint64_t digest;
};

constexpr std::uint64_t kSweepCuts = 1024;

/**
 * One hash over the truncatedRunDigest of every cut in [1, kSweepCuts],
 * captured with the per-instruction run-ahead check. Every cut lands on
 * some instruction of a run-ahead block, so a bound that is checked once
 * per block must fall back to exact single steps at each of them.
 */
constexpr TruncationSweepGolden kTruncationSweepGoldens[] = {
    {"kmeans", ProtocolKind::Mesi, 0x973ca283ae868b41ULL},
    {"kmeans", ProtocolKind::Dragon, 0xc47586107a51c3b8ULL},
    {"spin_lock", ProtocolKind::Mesi, 0xd61f5bf371331ba5ULL},
    {"spin_lock", ProtocolKind::Dragon, 0x753a3302c99202a9ULL},
};

TEST(Machine, DenseTruncationSweepMatchesGoldens)
{
    for (const TruncationSweepGolden &golden : kTruncationSweepGoldens) {
        workloads::WorkloadBuild build;
        if (std::string_view(golden.program) == "spin_lock") {
            build.program = spinLockContention();
        } else {
            const workloads::WorkloadDef *def =
                workloads::findWorkload(golden.program);
            ASSERT_NE(def, nullptr) << golden.program;
            build = def->build({});
        }
        Fnv64 h;
        for (std::uint64_t cut = 1; cut <= kSweepCuts; ++cut)
            h.mix(truncatedRunDigest(build, golden.protocol, cut));
        EXPECT_EQ(h.hash, golden.digest)
            << golden.program << " " << protocolName(golden.protocol)
            << " digest 0x" << std::hex << h.hash;
    }
}

} // namespace
} // namespace laser::sim
