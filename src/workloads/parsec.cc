/**
 * @file
 * PARSEC 3.0 workload kernels. The interesting ones for LASER:
 *
 *  - dedup: the paper's novel true-sharing find — every pipeline queue
 *    is protected by a single lock, serializing enqueue/dequeue
 *    (Section 7.4.2); its per-line HITM rates sit between LASER's 1K/s
 *    threshold and VTune's 2K/s, which is why VTune misses it (Table 1).
 *  - bodytrack: true sharing in TicketDispenser::getTicket().
 *  - streamcluster: work_mem[] padded for 32-byte lines, insufficient
 *    for 64-byte lines (Section 7.4.3).
 *  - x264: reference-frame sharing spread thinly across many source
 *    lines — enough total HITM traffic to cost LASER ~15% monitoring
 *    overhead (Figure 12) without any single line crossing the
 *    reporting threshold.
 */

#include "workloads/common.h"
#include "workloads/suites.h"

namespace laser::workloads {

using namespace laser::isa;

// -----------------------------------------------------------------------
// blackscholes
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildBlackscholes(const BuildOptions &opt, Image image)
{
    Ctx ctx("blackscholes", "blackscholes.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t options = ctx.scaled(5200);
    const std::uint64_t data = ctx.heap.allocAligned(
        std::uint64_t(options) * opt.numThreads * 40 + 4096, 64);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 40; ++i)
        ctx.init64(data + 8ull * i, 90 + i);

    a.at(30).tid(R1);
    emitThreadAddr(a, R2, R1, data, options * 40, R3);
    a.at(32).movi(R4, options);
    Asm::Label loop = a.here();
    a.at(35).load(R6, R2, 0, 8);  // spot
    a.addi(R6, R6, 1);
    a.at(36).load(R7, R2, 8, 8);  // strike
    a.at(38).mul(R8, R6, R6);
    a.mul(R8, R8, R7);
    a.addi(R8, R8, 42);
    a.mul(R8, R8, R6);
    a.shri(R8, R8, 3);
    a.at(41).store(R2, 32, R8, 8); // private price
    a.addi(R2, R2, 40);
    a.subi(R4, R4, 1);
    a.bne(R4, R0, loop);
    a.at(45);
    emitBarrier(ctx, barrier);
    a.at(46).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeBlackscholes()
{
    WorkloadDef def;
    def.info.name = "blackscholes";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = buildBlackscholes;
    return def;
}

// -----------------------------------------------------------------------
// bodytrack
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildBodytrack(const BuildOptions &opt, Image image)
{
    Ctx ctx("bodytrack", "TicketDispenser.cpp", opt, image);
    Asm &a = ctx.a;

    const std::int64_t tickets = ctx.scaled(2600);
    // Ticket dispenser object: counter plus a lastIssued bookkeeping
    // word on the same line (both contended).
    const std::uint64_t dispenser = ctx.globals.allocAligned(64, 64);
    // Shared observation accumulator updated per particle batch
    // (secondary, real contention -> Table 1 false positives).
    const std::uint64_t accum = ctx.globals.allocAligned(64, 64);
    const std::uint64_t frame = ctx.heap.allocAligned(65536, 64);
    for (int i = 0; i < 128; ++i)
        ctx.init64(frame + 8ull * i, i * 3 + 1);

    a.file("bodytrack.cpp").at(20).tid(R1);
    a.movi(R2, static_cast<std::int64_t>(dispenser));
    a.movi(R9, static_cast<std::int64_t>(accum));
    emitThreadAddr(a, R5, R1, frame + 8192, 2048, R3);
    a.movi(R8, 1);

    Asm::Label loop = a.newLabel();
    Asm::Label done = a.newLabel();
    a.bind(loop);
    // TicketDispenser::getTicket(): the true-sharing bug.
    a.file("TicketDispenser.cpp").at(42).fetchadd(R4, R2, 0, R8);
    a.at(43).store(R2, 8, R4, 8); // lastIssued bookkeeping
    a.movi(R6, tickets);
    a.bge(R4, R6, done);

    // Particle-weight work: loads from the (read-shared) frame plus
    // private stores.
    a.file("bodytrack.cpp").at(60);
    a.movi(R7, static_cast<std::int64_t>(frame));
    a.muli(R6, R4, 8);
    a.movi(R3, 1016);
    a.andr(R6, R6, R3);
    a.add(R7, R7, R6);
    a.movi(R3, 26);
    Asm::Label work = a.here();
    a.at(64).load(R6, R7, 0, 8);
    a.at(65).mul(R6, R6, R6);
    a.addi(R6, R6, 7);
    a.mul(R6, R6, R6);
    a.at(66).store(R5, 0, R6, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, work);
    // Shared accumulator updates every 4th ticket (secondary, real
    // contention: the Table 1 false positives).
    {
        Asm::Label skip = a.newLabel();
        a.movi(R3, 3);
        a.andr(R3, R4, R3);
        a.bne(R3, R0, skip);
        a.at(72).addmem(R9, 0, R8, 8);
        a.at(73).addmem(R9, 8, R8, 8);
        a.bind(skip);
    }
    a.jmp(loop);
    a.bind(done);
    a.at(80).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeBodytrack()
{
    WorkloadDef def;
    def.info.name = "bodytrack";
    def.info.suite = Suite::Parsec;
    def.info.bugs.push_back(
        {"TicketDispenser.cpp:42", BugType::TrueSharing,
         "getTicket(): all workers fetch-and-add one counter; "
         "fundamental to load balancing (Section 7.4.2)",
         {"TicketDispenser.cpp:43"}});
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = buildBodytrack;
    return def;
}

// -----------------------------------------------------------------------
// canneal
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildCanneal(const BuildOptions &opt, Image image)
{
    Ctx ctx("canneal", "canneal.cpp", opt, image);
    Asm &a = ctx.a;
    const std::int64_t moves = ctx.scaled(2200);
    const std::int64_t elements = 512;
    const std::uint64_t netlist = ctx.heap.allocAligned(elements * 64, 64);
    for (int i = 0; i < elements; ++i)
        ctx.init64(netlist + 64ull * i, i);

    a.at(30).tid(R1);
    a.muli(R9, R1, 127); // per-thread walk stride
    a.addi(R9, R9, 31);
    a.at(32).movi(R4, moves);
    a.movi(R2, static_cast<std::int64_t>(netlist));
    a.movi(R5, 0);
    Asm::Label loop = a.here();
    // Pick a pseudo-random element; swap (CAS) only every 4th move;
    // contention is migratory and rare (512 elements, 4 threads).
    a.at(36).add(R5, R5, R9);
    a.at(37).muli(R6, R5, 64);
    a.movi(R7, (elements - 1) * 64);
    a.andr(R6, R6, R7);
    a.add(R6, R2, R6);
    {
        Asm::Label skip = a.newLabel();
        a.movi(R7, 3);
        a.andr(R7, R4, R7);
        a.bne(R7, R0, skip);
        a.at(40).load(R7, R6, 0, 8);
        a.at(41).addi(R8, R7, 1);
        a.cas(R8, R6, 0, R7);
        a.bind(skip);
    }
    // Routing-cost estimate (private compute).
    for (int r = 0; r < 4; ++r) {
        a.at(44 + r).mul(R8, R9, R9);
        a.addi(R8, R8, 13 + r);
        a.mul(R8, R8, R9);
        a.shri(R8, R8, 2);
    }
    a.subi(R4, R4, 1);
    a.bne(R4, R0, loop);
    a.at(50).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeCanneal()
{
    WorkloadDef def;
    def.info.name = "canneal";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = buildCanneal;
    return def;
}

// -----------------------------------------------------------------------
// dedup
// -----------------------------------------------------------------------

namespace {

/**
 * Pipeline: t0 produces into q1, t1 transforms q1 -> q2, t2/t3 consume
 * q2. Each queue is {lock @0, head @8, tail @16, ring @64..}; the naive
 * build takes the single queue lock around every operation.
 */
WorkloadBuild
buildDedup(const BuildOptions &opt, Image image, bool lockfree)
{
    Ctx ctx("dedup", "queue.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t items = ctx.scaled(700);
    const std::int64_t ring_mask = 255;
    const std::uint64_t q1 = ctx.heap.allocAligned(64 + 256 * 8, 64);
    const std::uint64_t q2 = ctx.heap.allocAligned(64 + 256 * 8, 64);
    const std::uint64_t chunks = ctx.heap.allocAligned(65536, 64);
    for (int i = 0; i < 256; ++i)
        ctx.init64(chunks + 8ull * i, 0x517e0000 + i);

    // --- helpers -------------------------------------------------------
    // enqueue(q in R2, value in R6): returns with slot written.
    auto emit_enqueue = [&](std::uint64_t q) {
        a.movi(R2, static_cast<std::int64_t>(q));
        if (!lockfree) {
            a.file("queue.c").at(31);
            emitInlineTtsAcquire(a, R2, R7);
            a.at(33).load(R8, R2, 16, 8); // tail
            a.muli(R9, R8, 8);
            a.movi(R3, ring_mask * 8);
            a.andr(R9, R9, R3);
            a.addi(R9, R9, 64);
            a.add(R9, R2, R9);
            a.store(R9, 0, R6, 8);
            a.addi(R8, R8, 1);
            a.at(34).store(R2, 16, R8, 8);
            a.at(35);
            emitInlineRelease(a, R2);
        } else {
            // Lock-free (Boost-like): fetch-add the tail ticket.
            a.file("queue.c").at(131).movi(R8, 1);
            a.fetchadd(R8, R2, 16, R8);
            a.muli(R9, R8, 8);
            a.movi(R3, ring_mask * 8);
            a.andr(R9, R9, R3);
            a.addi(R9, R9, 64);
            a.add(R9, R2, R9);
            a.at(133).store(R9, 0, R6, 8);
        }
    };
    // dequeue(q in R2) -> R6; spins until head < tail.
    auto emit_dequeue = [&](std::uint64_t q) {
        a.movi(R2, static_cast<std::int64_t>(q));
        if (!lockfree) {
            // Lock-free peek before taking the lock (double-checked),
            // so waiting consumers do not hammer the lock line.
            Asm::Label retry = a.here();
            {
                Asm::Label ready = a.newLabel();
                a.file("queue.c").at(40);
                a.load(R8, R2, 8, 8);
                a.load(R9, R2, 16, 8);
                a.blt(R8, R9, ready);
                for (int p = 0; p < 20; ++p)
                    a.pause();
                a.jmp(retry);
                a.bind(ready);
            }
            a.file("queue.c").at(41);
            emitInlineTtsAcquire(a, R2, R7);
            a.at(43).load(R8, R2, 8, 8);  // head
            a.load(R9, R2, 16, 8);        // tail
            Asm::Label got = a.newLabel();
            a.blt(R8, R9, got);
            a.at(44);
            emitInlineRelease(a, R2);
            // Back off while the queue is empty instead of hammering
            // the lock line.
            for (int p = 0; p < 12; ++p)
                a.pause();
            a.jmp(retry);
            a.bind(got);
            a.at(46).muli(R9, R8, 8);
            a.movi(R3, ring_mask * 8);
            a.andr(R9, R9, R3);
            a.addi(R9, R9, 64);
            a.add(R9, R2, R9);
            a.load(R6, R9, 0, 8);
            a.addi(R8, R8, 1);
            a.at(47).store(R2, 8, R8, 8);
            a.at(48);
            emitInlineRelease(a, R2);
        } else {
            a.file("queue.c").at(141);
            Asm::Label retry = a.here();
            a.load(R8, R2, 8, 8);
            a.load(R9, R2, 16, 8);
            Asm::Label got = a.newLabel();
            a.blt(R8, R9, got);
            for (int p = 0; p < 12; ++p)
                a.pause();
            a.jmp(retry);
            a.bind(got);
            a.at(143).addi(R9, R8, 1);
            a.mov(R3, R9);
            a.mov(R9, R8);
            // CAS head: claim the slot.
            a.mov(R4, R3);
            a.movi(R3, 8);
            // desired in R4, expected in R8
            a.cas(R4, R2, 8, R8);
            a.bne(R4, R8, retry);
            a.at(145).muli(R9, R8, 8);
            a.movi(R3, ring_mask * 8);
            a.andr(R9, R9, R3);
            a.addi(R9, R9, 64);
            a.add(R9, R2, R9);
            a.load(R6, R9, 0, 8);
        }
    };
    // Per-item transform work (compression model).
    auto emit_work = [&](int rounds, int base_line) {
        a.file("dedup.c").at(base_line).movi(R4, rounds);
        Asm::Label w = a.here();
        a.at(base_line + 1).load(R7, R5, 0, 8);
        a.at(base_line + 2).mul(R7, R7, R7);
        a.addi(R7, R7, 3);
        a.shri(R7, R7, 1);
        a.at(base_line + 3).store(R5, 8, R7, 8);
        a.subi(R4, R4, 1);
        a.bne(R4, R0, w);
    };

    Asm::Label stage1 = a.newLabel();
    Asm::Label stage2 = a.newLabel();
    Asm::Label consume = a.newLabel();
    a.file("dedup.c").at(20).tid(R1);
    emitThreadAddr(a, R5, R1, chunks + 16384, 2048, R3);
    a.movi(R9, 1);
    a.beq(R1, R9, stage2);
    a.movi(R9, 0);
    a.bne(R1, R9, consume);
    a.jmp(stage1);

    // --- t0: producer --------------------------------------------------
    a.bind(stage1);
    a.at(30).movi(R11, items); // r11: counter (enqueue clobbers r3-r9)
    {
        Asm::Label loop = a.here();
        a.mov(R6, R11);
        emit_work(14, 32);
        a.mov(R6, R11);
        emit_enqueue(q1);
        a.file("dedup.c").at(38).subi(R11, R11, 1);
        a.bne(R11, R0, loop);
    }
    // Sentinel values so downstream stages terminate.
    a.movi(R6, -1);
    emit_enqueue(q1);
    a.file("dedup.c").at(40).halt();

    // --- t1: transform q1 -> q2 ----------------------------------------
    a.bind(stage2);
    {
        Asm::Label loop = a.here();
        emit_dequeue(q1);
        a.file("dedup.c").at(50).movi(R3, -1);
        Asm::Label out = a.newLabel();
        a.beq(R6, R3, out);
        a.mov(R11, R6);
        emit_work(6, 52);
        a.mov(R6, R11);
        emit_enqueue(q2);
        a.jmp(loop);
        a.bind(out);
        a.movi(R6, -1);
        emit_enqueue(q2); // forward sentinel (twice, one per consumer)
        a.movi(R6, -1);
        emit_enqueue(q2);
        a.file("dedup.c").at(58).halt();
    }

    // --- t2/t3: consumers ----------------------------------------------
    a.bind(consume);
    {
        Asm::Label loop = a.here();
        emit_dequeue(q2);
        a.file("dedup.c").at(60).movi(R3, -1);
        Asm::Label out = a.newLabel();
        a.beq(R6, R3, out);
        emit_work(6, 62);
        a.jmp(loop);
        a.bind(out);
        a.at(68).halt();
    }
    return ctx.finish();
}

} // namespace

WorkloadDef
makeDedup()
{
    WorkloadDef def;
    def.info.name = "dedup";
    def.info.suite = Suite::Parsec;
    def.info.bugs.push_back(
        {"queue.c:31", BugType::TrueSharing,
         "single lock per pipeline queue serializes enqueue/dequeue "
         "(Section 7.4.2); fixed with a lock-free queue",
         {"queue.c:33", "queue.c:34", "queue.c:35", "queue.c:41",
          "queue.c:43", "queue.c:44", "queue.c:46", "queue.c:47",
          "queue.c:48"}});
    def.info.sheriff = SheriffCompat::Incompatible; // spin locks
    def.info.hasManualFix = true;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildDedup(opt, image, opt.manualFix);
    };
    return def;
}

// -----------------------------------------------------------------------
// facesim
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildFacesim(const BuildOptions &opt, Image image)
{
    Ctx ctx("facesim", "facesim.cpp", opt, image);
    Asm &a = ctx.a;
    const std::int64_t frames = ctx.scaled(12);
    const std::uint64_t mesh = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 16384 + 4096, 64);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 64; ++i)
        ctx.init64(mesh + 8ull * i, i + 11);

    a.at(20).tid(R1);
    a.movi(R5, frames);
    Asm::Label frame = a.here();
    a.at(24);
    emitThreadAddr(a, R2, R1, mesh, 16384, R3);
    emitPrivateWork(a, R2, R4, 220, 2, 5, 1, 16);
    a.at(30);
    emitBarrier(ctx, barrier);
    a.at(32);
    emitThreadAddr(a, R2, R1, mesh, 16384, R3);
    emitPrivateWork(a, R2, R4, 140, 1, 7, 1, 16);
    a.at(38);
    emitBarrier(ctx, barrier);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, frame);
    a.at(42).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeFacesim()
{
    WorkloadDef def;
    def.info.name = "facesim";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = buildFacesim;
    return def;
}

// -----------------------------------------------------------------------
// ferret
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildFerret(const BuildOptions &opt, Image image)
{
    Ctx ctx("ferret", "ferret.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t queries = ctx.scaled(220);
    const std::uint64_t work = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 8192 + 4096, 64);
    // A lightly-contended work counter (rates stay below thresholds).
    const std::uint64_t counter = ctx.globals.allocAligned(64, 64);
    for (int i = 0; i < 32; ++i)
        ctx.init64(work + 8ull * i, 21 + i);

    a.at(25).tid(R1);
    emitThreadAddr(a, R2, R1, work, 8192, R3);
    a.movi(R9, static_cast<std::int64_t>(counter));
    a.movi(R8, 1);
    a.movi(R5, queries);
    Asm::Label q = a.here();
    // Image-similarity stage: compute heavy per query.
    a.at(30);
    emitPrivateWork(a, R2, R4, 90, 2, 8, 1, 8);
    emitThreadAddr(a, R2, R1, work, 8192, R3);
    // Rank aggregation every 4th query (stays below thresholds).
    {
        Asm::Label skip = a.newLabel();
        a.movi(R6, 3);
        a.andr(R6, R5, R6);
        a.bne(R6, R0, skip);
        a.at(40).fetchadd(R6, R9, 0, R8);
        a.bind(skip);
    }
    a.subi(R5, R5, 1);
    a.bne(R5, R0, q);
    a.at(45).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeFerret()
{
    WorkloadDef def;
    def.info.name = "ferret";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = buildFerret;
    return def;
}

// -----------------------------------------------------------------------
// fluidanimate
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildFluidanimate(const BuildOptions &opt, Image image)
{
    Ctx ctx("fluidanimate", "fluidanimate.cpp", opt, image);
    Asm &a = ctx.a;
    const std::int64_t steps = ctx.scaled(170);
    const std::int64_t cells = 128;
    // One fine-grained lock per cell, line-padded.
    const std::uint64_t locks = ctx.heap.allocAligned(cells * 64, 64);
    const std::uint64_t grid = ctx.heap.allocAligned(cells * 64, 64);

    a.at(30).tid(R1);
    a.muli(R9, R1, 37);
    a.addi(R9, R9, 11);
    a.movi(R5, steps);
    Asm::Label step = a.here();
    // Pick a cell, compute forces privately, lock it, update, unlock.
    a.at(34).add(R9, R9, R5);
    a.muli(R6, R9, 64);
    a.movi(R7, (cells - 1) * 64);
    a.andr(R6, R6, R7);
    a.movi(R2, static_cast<std::int64_t>(locks));
    a.add(R2, R2, R6);
    a.movi(R3, static_cast<std::int64_t>(grid));
    a.add(R3, R3, R6);
    for (int r = 0; r < 18; ++r) {
        a.at(38).mul(R8, R9, R9);
        a.addi(R8, R8, 5 + r);
        a.mul(R8, R8, R9);
        a.shri(R8, R8, 1);
    }
    a.at(42);
    emitInlineTtsAcquire(a, R2, R7);
    a.at(44).load(R6, R3, 0, 8);
    a.add(R6, R6, R8);
    a.store(R3, 0, R6, 8);
    a.at(46);
    emitInlineRelease(a, R2);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, step);
    a.at(50).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeFluidanimate()
{
    WorkloadDef def;
    def.info.name = "fluidanimate";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = buildFluidanimate;
    return def;
}

// -----------------------------------------------------------------------
// freqmine
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildFreqmine(const BuildOptions &opt, Image image)
{
    Ctx ctx("freqmine", "freqmine.cpp", opt, image);
    Asm &a = ctx.a;
    const std::int64_t transactions = ctx.scaled(1600);
    const std::uint64_t tree = ctx.heap.allocAligned(32768, 64);
    const std::uint64_t out = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 8192 + 4096, 64);
    for (int i = 0; i < 256; ++i)
        ctx.init64(tree + 8ull * i, (i * 7 + 3) % 251);

    a.at(22).tid(R1);
    emitThreadAddr(a, R2, R1, out, 8192, R3);
    a.movi(R9, static_cast<std::int64_t>(tree));
    a.movi(R5, transactions);
    Asm::Label t = a.here();
    // FP-tree walk: chase a few read-shared nodes, then a private store.
    a.at(26).andr(R6, R5, R5);
    a.muli(R6, R5, 8);
    a.movi(R7, 2040);
    a.andr(R6, R6, R7);
    a.add(R6, R9, R6);
    a.at(28).load(R7, R6, 0, 8);
    a.at(29).muli(R7, R7, 8);
    a.movi(R8, 2040);
    a.andr(R7, R7, R8);
    a.add(R7, R9, R7);
    a.at(30).load(R8, R7, 0, 8);
    a.at(31).addi(R8, R8, 1);
    a.at(32).store(R2, 0, R8, 8);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, t);
    a.at(36).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeFreqmine()
{
    WorkloadDef def;
    def.info.name = "freqmine";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Incompatible; // OpenMP
    def.builder = buildFreqmine;
    return def;
}

// -----------------------------------------------------------------------
// raytrace (parsec)
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildRaytrace(const BuildOptions &opt, Image image, const std::string &name,
              const std::string &file, std::int64_t rays_scale,
              std::int64_t counter_period)
{
    Ctx ctx(name, file, opt, image);
    Asm &a = ctx.a;
    const std::int64_t rays = ctx.scaled(rays_scale);
    const std::uint64_t bvh = ctx.heap.allocAligned(32768, 64);
    const std::uint64_t framebuffer = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 16384 + 4096, 64);
    // Global ray-id counter: frequent in splash2x raytrace (its Table 1
    // false positives), rare in the parsec version.
    const std::uint64_t ray_id = ctx.globals.allocAligned(64, 64);
    for (int i = 0; i < 256; ++i)
        ctx.init64(bvh + 8ull * i, (i * 5 + 1) % 509);

    a.at(18).tid(R1);
    emitThreadAddr(a, R2, R1, framebuffer, 16384, R3);
    a.movi(R9, static_cast<std::int64_t>(bvh));
    a.movi(R5, rays);
    a.movi(R8, 1);
    Asm::Label ray = a.here();
    // BVH traversal: dependent loads through the read-shared tree.
    a.at(22).muli(R6, R5, 8);
    a.movi(R7, 2040);
    a.andr(R6, R6, R7);
    a.add(R6, R9, R6);
    a.at(24).load(R7, R6, 0, 8);
    a.at(25).muli(R7, R7, 8);
    a.movi(R4, 2040);
    a.andr(R7, R7, R4);
    a.add(R7, R9, R7);
    a.at(26).load(R4, R7, 0, 8);
    a.at(28).mul(R4, R4, R4);
    a.addi(R4, R4, 9);
    a.at(30).store(R2, 0, R4, 8);
    // Periodic global ray-id bump.
    a.movi(R4, counter_period);
    a.movi(R7, 0);
    {
        Asm::Label skip = a.newLabel();
        a.at(33).andr(R6, R5, R4);
        a.bne(R6, R7, skip);
        a.movi(R6, static_cast<std::int64_t>(ray_id));
        a.at(35).fetchadd(R3, R6, 0, R8);
        a.at(36).store(R6, 8, R3, 8); // last-dispatched bookkeeping
        a.bind(skip);
    }
    a.subi(R5, R5, 1);
    a.bne(R5, R0, ray);
    a.at(40).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeRaytraceParsec()
{
    WorkloadDef def;
    def.info.name = "raytrace.parsec";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Incompatible;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildRaytrace(opt, image, "raytrace_parsec", "rtview.cpp", 2800,
                             255);
    };
    return def;
}

// -----------------------------------------------------------------------
// streamcluster
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildStreamcluster(const BuildOptions &opt, Image image)
{
    Ctx ctx("streamcluster", "streamcluster.cpp", opt, image);
    Asm &a = ctx.a;
    const std::int64_t points = ctx.scaled(2400);
    // work_mem: per-thread slots padded to 32 bytes — enough for the
    // 32-byte lines the code was written for, not for our 64-byte lines
    // (Section 7.4.3). The fix doubles the stride.
    const std::int64_t stride = opt.manualFix ? 64 : 32;
    const std::uint64_t work_mem = ctx.heap.allocAligned(
        std::uint64_t(stride) * opt.numThreads, 64);
    const std::uint64_t coords = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 8192 + 4096, 64);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 64; ++i)
        ctx.init64(coords + 8ull * i, i * 13 + 7);

    a.at(640).tid(R1);
    emitThreadAddr(a, R2, R1, work_mem, stride, R3);
    emitThreadAddr(a, R9, R1, coords, 8192, R3);
    a.movi(R5, points);
    Asm::Label pt = a.here();
    // Distance/gain computation (private).
    a.at(645).load(R6, R9, 0, 8);
    a.addi(R6, R6, 3);
    a.at(646).load(R7, R9, 8, 8);
    a.sub(R6, R6, R7);
    a.mul(R6, R6, R6);
    a.addi(R6, R6, 1);
    a.mul(R7, R6, R6);
    a.shri(R7, R7, 2);
    a.add(R6, R6, R7);
    a.mul(R7, R6, R6);
    a.shri(R7, R7, 3);
    a.add(R6, R6, R7);
    // The falsely-shared gain accumulation (streamcluster.cpp:653).
    a.at(653).addmem(R2, 0, R6, 8);
    a.addi(R9, R9, 8);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, pt);
    a.at(660);
    emitBarrier(ctx, barrier);
    a.at(662).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeStreamcluster()
{
    WorkloadDef def;
    def.info.name = "streamcluster";
    def.info.suite = Suite::Parsec;
    def.info.bugs.push_back(
        {"streamcluster.cpp:653", BugType::FalseSharing,
         "work_mem padded for 32-byte lines; insufficient for 64-byte "
         "lines (Section 7.4.3)",
         {"streamcluster.cpp:654", "streamcluster.cpp:645",
          "streamcluster.cpp:646"}});
    def.info.sheriff = SheriffCompat::Crash;
    def.info.hasManualFix = true;
    def.builder = buildStreamcluster;
    return def;
}

// -----------------------------------------------------------------------
// swaptions
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildSwaptions(const BuildOptions &opt, Image image)
{
    Ctx ctx("swaptions", "swaptions.cpp", opt, image);
    Asm &a = ctx.a;
    const std::int64_t sims = ctx.scaled(950);
    const std::uint64_t paths = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 8192 + 4096, 64);
    for (int i = 0; i < 16; ++i)
        ctx.init64(paths + 8ull * i, i + 2);

    a.at(28).tid(R1);
    emitThreadAddr(a, R2, R1, paths, 8192, R3);
    a.movi(R5, sims);
    Asm::Label sim = a.here();
    // HJM path simulation: multiply-heavy private compute.
    a.at(32).load(R6, R2, 0, 8);
    a.at(34).mul(R7, R6, R6);
    a.mul(R7, R7, R6);
    a.addi(R7, R7, 17);
    a.mul(R7, R7, R6);
    a.shri(R7, R7, 4);
    a.mul(R7, R7, R7);
    a.addi(R7, R7, 3);
    a.at(38).store(R2, 8, R7, 8);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, sim);
    a.at(42).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeSwaptions()
{
    WorkloadDef def;
    def.info.name = "swaptions";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = buildSwaptions;
    return def;
}

// -----------------------------------------------------------------------
// vips
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildVips(const BuildOptions &opt, Image image)
{
    Ctx ctx("vips", "vips.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t tiles = ctx.scaled(420);
    const std::uint64_t input = ctx.heap.allocAligned(65536, 64);
    const std::uint64_t output = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 16384 + 4096, 64);
    for (int i = 0; i < 128; ++i)
        ctx.init64(input + 8ull * i, (i * 3 + 2) % 255);

    a.at(50).tid(R1);
    emitThreadAddr(a, R2, R1, output, 16384, R3);
    a.movi(R9, static_cast<std::int64_t>(input));
    a.movi(R5, tiles);
    Asm::Label tile = a.here();
    {
        a.movi(R4, 10);
        Asm::Label px = a.here();
        a.at(54).load(R6, R9, 0, 8); // read-shared input
        a.addi(R6, R6, 1);
        a.at(55).load(R7, R9, 8, 8);
        a.add(R6, R6, R7);
        a.muli(R6, R6, 3);
        a.shri(R6, R6, 2);
        a.at(57).store(R2, 0, R6, 8); // private output
        a.addi(R2, R2, 8);
        a.subi(R4, R4, 1);
        a.bne(R4, R0, px);
        emitThreadAddr(a, R2, R1, output, 16384, R3);
    }
    a.subi(R5, R5, 1);
    a.bne(R5, R0, tile);
    a.at(62).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeVips()
{
    WorkloadDef def;
    def.info.name = "vips";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Incompatible;
    def.builder = buildVips;
    return def;
}

// -----------------------------------------------------------------------
// x264
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildX264(const BuildOptions &opt, Image image)
{
    Ctx ctx("x264", "x264.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t mbs = ctx.scaled(1600);
    constexpr int kSites = 64;
    // Reference rows: each thread writes its own row band (every 8th
    // macroblock) and reads the band of the previous thread (load HITM
    // after each remote write), spread across 64 inter-prediction
    // "functions" so no single source line crosses the report threshold
    // while the *total* HITM traffic costs LASER ~15% of monitoring
    // overhead (Figure 12; Table 1: no reports).
    const std::uint64_t ref = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 8192, 64);

    a.at(100).tid(R1);
    emitThreadAddr(a, R2, R1, ref, 8192, R3);
    // Previous thread's band (wraps around).
    a.addi(R4, R1, opt.numThreads - 1);
    a.movi(R6, opt.numThreads - 1);
    a.andr(R4, R4, R6);
    emitThreadAddr(a, R9, R4, ref, 8192, R3);
    a.movi(R5, mbs);
    Asm::Label mb = a.here();
    Asm::Label no_store = a.newLabel();
    for (int site = 0; site < kSites; ++site) {
        a.at(120 + 4 * site).load(R6, R9, 128 * site, 8);
        a.at(121 + 4 * site).mul(R7, R6, R6);
        a.addi(R7, R7, site + 1);
        a.shri(R7, R7, 1);
        a.addi(R7, R7, 3);
    }
    // Reference update burst every 16th macroblock.
    a.at(380).movi(R6, 15);
    a.andr(R6, R5, R6);
    a.bne(R6, R0, no_store);
    for (int site = 0; site < kSites; ++site)
        a.at(122 + 4 * site).store(R2, 128 * site, R7, 8);
    a.bind(no_store);
    a.at(390).subi(R5, R5, 1);
    a.bne(R5, R0, mb);
    a.at(395).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeX264()
{
    WorkloadDef def;
    def.info.name = "x264";
    def.info.suite = Suite::Parsec;
    def.info.sheriff = SheriffCompat::Incompatible;
    def.builder = buildX264;
    return def;
}

} // namespace laser::workloads
