/**
 * @file
 * Splash2x workload kernels. The interesting ones for LASER:
 *
 *  - lu_ncb: the paper's novel false-sharing find — the non-contiguous
 *    `a` array's 800-byte per-thread chunks leave every chunk boundary
 *    mid-line when malloc returns offset 16 (mod 64). The LASER-attach
 *    heap shift (+48) re-aligns half the boundaries, which is exactly
 *    the "coincidental change in memory layout" that made lu_ncb 30%
 *    faster under LASER (Section 7.4.2); a barrier inside the sweep
 *    loop is what makes the region unanalyzable for LASERREPAIR.
 *  - volrend: true sharing on the tile-queue counter lock.
 *  - water_nsquared: SPLASH macro-expanded inline locks at many call
 *    sites — lots of total HITM traffic (LASER ~10% overhead, Sheriff
 *    ~5x) with no single line above the report threshold.
 */

#include "workloads/common.h"
#include "workloads/suites.h"

namespace laser::workloads {

using namespace laser::isa;

// -----------------------------------------------------------------------
// Generic compute-with-barriers kernel used by several members of the
// suite (they differ in compute mix, phase count and sync density).
// -----------------------------------------------------------------------

namespace {

struct PhasedParams
{
    std::string name;
    std::string file;
    std::int64_t phases = 8;
    std::int64_t inner = 200;
    int loads = 2;
    int arith = 4;
    int stores = 1;
    int baseLine = 30;
};

WorkloadBuild
buildPhased(const BuildOptions &opt, Image image, const PhasedParams &pp)
{
    Ctx ctx(pp.name, pp.file, opt, image);
    Asm &a = ctx.a;
    const std::uint64_t data = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 32768 + 4096, 64);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 64; ++i)
        ctx.init64(data + 8ull * i, i * 17 + 5);

    a.at(pp.baseLine).tid(R1);
    a.movi(R5, ctx.scaled(pp.phases));
    Asm::Label phase = a.here();
    a.at(pp.baseLine + 4);
    emitThreadAddr(a, R2, R1, data, 32768, R3);
    a.at(pp.baseLine + 6);
    emitPrivateWork(a, R2, R4, pp.inner, pp.loads, pp.arith, pp.stores,
                    16);
    a.at(pp.baseLine + 14);
    emitBarrier(ctx, barrier);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, phase);
    a.at(pp.baseLine + 18).halt();
    return ctx.finish();
}

} // namespace

// -----------------------------------------------------------------------
// barnes
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildBarnes(const BuildOptions &opt, Image image)
{
    Ctx ctx("barnes", "barnes.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t bodies = ctx.scaled(450);
    const std::int64_t cells = 64;
    const std::uint64_t cell_locks = ctx.heap.allocAligned(cells * 64, 64);
    const std::uint64_t tree = ctx.heap.allocAligned(cells * 64, 64);
    const std::uint64_t barrier = ctx.allocBarrier();

    a.at(40).tid(R1);
    a.muli(R9, R1, 61);
    a.addi(R9, R9, 17);
    a.movi(R5, bodies);
    // Tree build: lock a pseudo-random cell, insert, unlock.
    Asm::Label insert = a.here();
    a.at(44).add(R9, R9, R5);
    a.muli(R6, R9, 64);
    a.movi(R7, (cells - 1) * 64);
    a.andr(R6, R6, R7);
    a.movi(R2, static_cast<std::int64_t>(cell_locks));
    a.add(R2, R2, R6);
    a.movi(R3, static_cast<std::int64_t>(tree));
    a.add(R3, R3, R6);
    a.at(48);
    emitInlineTtsAcquire(a, R2, R7);
    a.at(50).load(R6, R3, 0, 8);
    a.addi(R6, R6, 1);
    a.store(R3, 0, R6, 8);
    a.at(52);
    emitInlineRelease(a, R2);
    // Force computation (private, multiply heavy).
    for (int r = 0; r < 14; ++r) {
        a.at(56 + (r % 3)).mul(R6, R9, R9);
        a.addi(R6, R6, 3 + r);
        a.mul(R6, R6, R9);
        a.shri(R6, R6, 2);
        a.mul(R6, R6, R6);
    }
    a.subi(R5, R5, 1);
    a.bne(R5, R0, insert);
    a.at(62);
    emitBarrier(ctx, barrier);
    a.at(64).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeBarnes()
{
    WorkloadDef def;
    def.info.name = "barnes";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = buildBarnes;
    return def;
}

// -----------------------------------------------------------------------
// fft
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildFft(const BuildOptions &opt, Image image)
{
    Ctx ctx("fft", "fft.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t phases = 6;
    const std::int64_t elems = ctx.scaled(550);
    const std::uint64_t data = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 16384, 64);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 64; ++i)
        ctx.init64(data + 8ull * i, i + 1);

    a.at(30).tid(R1);
    a.movi(R5, phases);
    Asm::Label phase = a.here();
    // Butterfly compute on the local partition.
    a.at(34);
    emitThreadAddr(a, R2, R1, data, 16384, R3);
    emitPrivateWork(a, R2, R4, elems, 2, 5, 2, 16);
    // Transpose: read one block written by the next thread (brief HITM
    // burst at each phase boundary, too sparse to cross any threshold).
    a.at(44).addi(R6, R1, 1);
    a.movi(R7, opt.numThreads - 1);
    a.andr(R6, R6, R7);
    emitThreadAddr(a, R2, R6, data, 16384, R3);
    a.movi(R4, 8);
    Asm::Label tr = a.here();
    a.at(47).load(R6, R2, 0, 8);
    a.addi(R2, R2, 64);
    a.mul(R7, R6, R6);
    a.addi(R7, R7, 5);
    a.subi(R4, R4, 1);
    a.bne(R4, R0, tr);
    a.at(50);
    emitBarrier(ctx, barrier);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, phase);
    a.at(54).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeFft()
{
    WorkloadDef def;
    def.info.name = "fft";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = buildFft;
    return def;
}

// -----------------------------------------------------------------------
// fmm / ocean / lu_cb (phased compute kernels)
// -----------------------------------------------------------------------

WorkloadDef
makeFmm()
{
    WorkloadDef def;
    def.info.name = "fmm";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = [](const BuildOptions &opt, Image image) {
        PhasedParams pp;
        pp.name = "fmm";
        pp.file = "fmm.c";
        pp.phases = 7;
        pp.inner = 260;
        pp.arith = 7;
        pp.baseLine = 70;
        return buildPhased(opt, image, pp);
    };
    return def;
}

WorkloadDef
makeLuCb()
{
    WorkloadDef def;
    def.info.name = "lu_cb";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::WorksSmallInput;
    def.builder = [](const BuildOptions &opt, Image image) {
        PhasedParams pp;
        pp.name = "lu_cb";
        pp.file = "lu_cb.c";
        pp.phases = 14;
        pp.inner = 150;
        pp.loads = 2;
        pp.arith = 5;
        pp.stores = 2;
        pp.baseLine = 120;
        return buildPhased(opt, image, pp);
    };
    return def;
}

WorkloadDef
makeOceanCp()
{
    WorkloadDef def;
    def.info.name = "ocean_cp";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = [](const BuildOptions &opt, Image image) {
        PhasedParams pp;
        pp.name = "ocean_cp";
        pp.file = "ocean_cp.c";
        pp.phases = 9;
        pp.inner = 210;
        pp.loads = 3;
        pp.arith = 4;
        pp.stores = 1;
        pp.baseLine = 200;
        return buildPhased(opt, image, pp);
    };
    return def;
}

WorkloadDef
makeOceanNcp()
{
    WorkloadDef def;
    def.info.name = "ocean_ncp";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = [](const BuildOptions &opt, Image image) {
        PhasedParams pp;
        pp.name = "ocean_ncp";
        pp.file = "ocean_ncp.c";
        pp.phases = 9;
        pp.inner = 230;
        pp.loads = 3;
        pp.arith = 3;
        pp.stores = 2;
        pp.baseLine = 230;
        return buildPhased(opt, image, pp);
    };
    return def;
}

// -----------------------------------------------------------------------
// lu_ncb
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildLuNcb(const BuildOptions &opt, Image image)
{
    Ctx ctx("lu_ncb", "lu_ncb.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t steps = ctx.scaled(30);
    const std::int64_t chunk_elems = 100; // 800 bytes
    const std::int64_t chunks_per_thread = 3;
    const std::int64_t passes_per_step = 4;
    // The non-contiguous-block layout. Native: chunk size 800 bytes, so
    // with malloc's offset-16 start every chunk boundary is mid-line.
    // Manual fix: pad chunks to 832 (a line multiple) and align the
    // array (Section 7.4.2: 36% faster).
    const std::int64_t chunk_bytes = opt.manualFix ? 832 : 800;
    const std::int64_t total_chunks =
        chunks_per_thread * opt.numThreads;
    const std::uint64_t array =
        opt.manualFix
            ? ctx.heap.allocAligned(
                  std::uint64_t(chunk_bytes) * total_chunks, 64)
            : ctx.heap.alloc(std::uint64_t(chunk_bytes) * total_chunks);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 32; ++i)
        ctx.init64(array + 8ull * i, i + 3);

    a.at(140).tid(R1);
    a.movi(R5, steps);
    Asm::Label step = a.here();
    {
        // Sweep my (interleaved) chunks: thread t owns chunks
        // t, t+T, t+2T, ... — neighbours own adjacent chunks, so every
        // mid-line chunk boundary is falsely shared.
        a.at(144).movi(R4, chunks_per_thread);
        a.muli(R2, R1, chunk_bytes);
        a.movi(R3, static_cast<std::int64_t>(array));
        a.add(R2, R2, R3);
        Asm::Label chunk = a.here();
        {
            // LU re-sweeps each chunk several times per step (daxpy per
            // eliminated column); every pass re-contends the boundary
            // lines with the neighbouring owner.
            a.mov(R11, R2);
            a.movi(R10, passes_per_step);
            Asm::Label pass = a.here();
            // Each pass updates the leading and trailing edge regions of
            // the chunk (the daxpy working set of the current column
            // range) — both edges sit on the falsely-shared boundary
            // lines when malloc leaves the array unaligned.
            for (int edge = 0; edge < 2; ++edge) {
                if (edge == 0)
                    a.mov(R2, R11);
                else
                    a.addi(R2, R11, (chunk_elems - 25) * 8);
                a.movi(R6, 25);
                Asm::Label elem = a.here();
                // a[i] = a[i] * l + pivot (the contending sweep,
                // lu_ncb.c:155).
                a.at(154).load(R7, R2, 0, 8);
                a.at(155).muli(R7, R7, 3);
                a.addi(R7, R7, 1);
                a.mul(R8, R7, R7);
                a.addi(R8, R8, 7);
                a.shri(R8, R8, 1);
                a.at(156).store(R2, 0, R7, 8);
                a.addi(R2, R2, 8);
                a.subi(R6, R6, 1);
                a.bne(R6, R0, elem);
            }
            a.addi(R2, R11, chunk_elems * 8);
            a.subi(R10, R10, 1);
            a.bne(R10, R0, pass);
        }
        // Hop to my next chunk (skip the other threads' chunks).
        a.at(160).addi(R2, R2,
                       (opt.numThreads - 1) * chunk_bytes +
                           (chunk_bytes - chunk_elems * 8));
        a.subi(R4, R4, 1);
        a.bne(R4, R0, chunk);
        // Pivot-row broadcast read: genuine read-write sharing with the
        // pivot owner (reported by LASER; not in the bug database — the
        // paper's lu_ncb false positive).
        a.at(120).movi(R3, static_cast<std::int64_t>(array));
        a.movi(R4, 12);
        Asm::Label piv = a.here();
        a.at(122).load(R7, R3, 0, 8);
        a.addi(R3, R3, 8);
        a.subi(R4, R4, 1);
        a.bne(R4, R0, piv);
        // The barrier inside the step loop: the opaque call that makes
        // LASERREPAIR decline the region (Section 7.4.2).
        a.at(165);
        emitBarrier(ctx, barrier);
    }
    a.subi(R5, R5, 1);
    a.bne(R5, R0, step);
    a.at(170).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeLuNcb()
{
    WorkloadDef def;
    def.info.name = "lu_ncb";
    def.info.suite = Suite::Splash2x;
    def.info.bugs.push_back(
        {"lu_ncb.c:155", BugType::FalseSharing,
         "non-contiguous 800-byte chunks of the `a` array leave every "
         "chunk boundary mid-line (Section 7.4.2)",
         {"lu_ncb.c:154", "lu_ncb.c:156", "lu_ncb.c:160",
          "lu_ncb.c:144"}});
    def.info.sheriff = SheriffCompat::WorksSmallInput;
    def.info.hasManualFix = true;
    def.builder = buildLuNcb;
    return def;
}

// -----------------------------------------------------------------------
// radiosity
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildRadiosity(const BuildOptions &opt, Image image)
{
    Ctx ctx("radiosity", "radiosity.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t tasks = ctx.scaled(420);
    const std::uint64_t task_lock = ctx.globals.allocAligned(64, 64);
    const std::uint64_t task_count = task_lock + 8;
    const std::uint64_t patches = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 8192 + 4096, 64);
    ctx.init64(task_count, 0);

    a.at(80).tid(R1);
    emitThreadAddr(a, R9, R1, patches, 8192, R3);
    Asm::Label loop = a.newLabel();
    Asm::Label done = a.newLabel();
    a.bind(loop);
    // Task dequeue under a lock (moderate contention).
    a.at(84).movi(R2, static_cast<std::int64_t>(task_lock));
    emitInlineTtsAcquire(a, R2, R7);
    a.at(86).load(R4, R2, 8, 8);
    a.addi(R6, R4, 1);
    a.store(R2, 8, R6, 8);
    a.at(88);
    emitInlineRelease(a, R2);
    a.movi(R6, tasks);
    a.bge(R4, R6, done);
    // Radiosity interaction (compute heavy).
    a.at(92);
    emitPrivateWork(a, R9, R5, 110, 2, 7, 1, 8);
    emitThreadAddr(a, R9, R1, patches, 8192, R3);
    a.jmp(loop);
    a.bind(done);
    a.at(98).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeRadiosity()
{
    WorkloadDef def;
    def.info.name = "radiosity";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = buildRadiosity;
    return def;
}

// -----------------------------------------------------------------------
// radix
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildRadix(const BuildOptions &opt, Image image)
{
    Ctx ctx("radix", "radix.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t keys = ctx.scaled(2600);
    const std::uint64_t input = ctx.heap.allocAligned(
        std::uint64_t(keys) * opt.numThreads * 8, 64);
    // Global output array: the permute phase scatters stores into
    // ranked positions; neighbouring threads' ranges share lines at the
    // seams (real sharing, just over the threshold: the paper's one
    // radix false positive).
    const std::uint64_t output = ctx.heap.alloc(
        std::uint64_t(keys) * opt.numThreads * 8 + 64);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 64; ++i)
        ctx.init64(input + 8ull * i, (i * 37 + 11) % 4096);

    a.at(500).tid(R1);
    // Phase 1: local histogram (private).
    emitThreadAddr(a, R2, R1, input, keys * 8, R3);
    a.at(504);
    emitPrivateWork(a, R2, R4, keys / 4, 1, 3, 1, 32);
    a.at(510);
    emitBarrier(ctx, barrier);
    // Phase 2: permute into the (mostly private) output range; every
    // 16th key updates the shared overflow-bucket rank word — genuine
    // low-intensity sharing that lands just over LASER's threshold (the
    // paper's one radix false positive).
    a.at(514).tid(R1);
    emitThreadAddr(a, R2, R1, input, keys * 8, R3);
    a.muli(R9, R1, keys * 8);
    a.movi(R3, static_cast<std::int64_t>(output));
    a.add(R9, R9, R3);
    a.movi(R8, 1);
    a.movi(R5, keys / 2);
    Asm::Label permute = a.here();
    a.at(520).load(R6, R2, 0, 8);
    a.muli(R6, R6, 3);
    a.at(521).store(R9, 0, R6, 8);
    {
        Asm::Label skip = a.newLabel();
        a.movi(R6, 15);
        a.andr(R6, R5, R6);
        a.bne(R6, R0, skip);
        // Shared overflow-bucket rank update (radix.c:522).
        a.movi(R6, static_cast<std::int64_t>(
                       output + std::uint64_t(keys) * opt.numThreads * 8));
        a.at(522).addmem(R6, 0, R8, 8);
        a.bind(skip);
    }
    a.addi(R2, R2, 16);
    a.addi(R9, R9, 16);
    a.subi(R5, R5, 1);
    a.bne(R5, R0, permute);
    a.at(526);
    emitBarrier(ctx, barrier);
    a.at(528).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeRadix()
{
    WorkloadDef def;
    def.info.name = "radix";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::WorksSmallInput;
    def.builder = buildRadix;
    return def;
}

// -----------------------------------------------------------------------
// raytrace.splash2x
// -----------------------------------------------------------------------

WorkloadDef
makeRaytraceSplash2x()
{
    WorkloadDef def;
    def.info.name = "raytrace.splash2x";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = [](const BuildOptions &opt, Image image) {
        // Same traversal kernel as the parsec version, but with a much
        // hotter global ray-id counter: its dispatch lines are LASER's
        // (and Sheriff's) raytrace.splash2x false positives.
        Ctx ctx("raytrace_splash2x", "rltotems.c", opt, image);
        Asm &a = ctx.a;
        const std::int64_t rays = ctx.scaled(3400);
        const std::uint64_t bvh = ctx.heap.allocAligned(32768, 64);
        const std::uint64_t fb = ctx.heap.allocAligned(
            std::uint64_t(opt.numThreads) * 16384 + 4096, 64);
        const std::uint64_t ray_id = ctx.globals.allocAligned(64, 64);
        for (int i = 0; i < 256; ++i)
            ctx.init64(bvh + 8ull * i, (i * 5 + 1) % 509);

        a.at(18).tid(R1);
        emitThreadAddr(a, R2, R1, fb, 16384, R3);
        a.movi(R9, static_cast<std::int64_t>(bvh));
        a.movi(R5, rays);
        a.movi(R8, 1);
        Asm::Label ray = a.here();
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
        // Hot ray-id dispatch: every 16th ray.
        {
            Asm::Label skip = a.newLabel();
            a.at(33).movi(R4, 15);
            a.andr(R6, R5, R4);
            a.bne(R6, R0, skip);
            a.movi(R6, static_cast<std::int64_t>(ray_id));
            a.at(35).fetchadd(R3, R6, 0, R8);
            a.at(36).store(R6, 8, R3, 8);
            a.at(37).addmem(R6, 16, R8, 8);
            a.bind(skip);
        }
        a.subi(R5, R5, 1);
        a.bne(R5, R0, ray);
        a.at(40).halt();
        return ctx.finish();
    };
    return def;
}

// -----------------------------------------------------------------------
// volrend
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildVolrend(const BuildOptions &opt, Image image)
{
    Ctx ctx("volrend", "volrend.c", opt, image);
    Asm &a = ctx.a;
    const std::int64_t tiles = ctx.scaled(1900);
    const std::int64_t batch = opt.manualFix ? 8 : 1;
    // Global->Queue: {lock @0, counter @8} on one line — the true
    // sharing LASER finds (Section 7.4.3). The fix batches increments.
    const std::uint64_t queue = ctx.globals.allocAligned(64, 64);
    const std::uint64_t voxels = ctx.heap.allocAligned(
        std::uint64_t(opt.numThreads) * 8192 + 4096, 64);

    a.at(230).tid(R1);
    emitThreadAddr(a, R9, R1, voxels, 8192, R3);
    a.movi(R2, static_cast<std::int64_t>(queue));
    a.movi(R8, batch);
    Asm::Label loop = a.newLabel();
    Asm::Label done = a.newLabel();
    a.bind(loop);
    // Acquire the queue lock, bump the tile counter (volrend.c:241).
    a.at(240);
    emitInlineTtsAcquire(a, R2, R7);
    a.at(241).load(R4, R2, 8, 8);
    a.add(R6, R4, R8);
    a.at(242).store(R2, 8, R6, 8);
    a.at(243);
    emitInlineRelease(a, R2);
    a.movi(R6, tiles);
    a.bge(R4, R6, done);
    // Render `batch` tiles (private ray casting).
    for (int b = 0; b < batch; ++b) {
        a.at(250);
        emitPrivateWork(a, R9, R5, 7, 2, 5, 1, 8);
        emitThreadAddr(a, R9, R1, voxels, 8192, R3);
    }
    a.jmp(loop);
    a.bind(done);
    a.at(258).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeVolrend()
{
    WorkloadDef def;
    def.info.name = "volrend";
    def.info.suite = Suite::Splash2x;
    def.info.bugs.push_back(
        {"volrend.c:241", BugType::TrueSharing,
         "lock-protected Global->Queue counter bumped per tile "
         "(Section 7.4.3); batching reduces HITMs 10x, no speedup",
         {"volrend.c:240", "volrend.c:242", "volrend.c:243"}});
    def.info.sheriff = SheriffCompat::Crash;
    def.info.hasManualFix = true;
    def.builder = buildVolrend;
    return def;
}

// -----------------------------------------------------------------------
// water_nsquared / water_spatial
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildWater(const BuildOptions &opt, Image image, const std::string &name,
           const std::string &file, int lock_sites,
           std::int64_t interactions, int compute_rounds)
{
    Ctx ctx(name, file, opt, image);
    Asm &a = ctx.a;
    const std::int64_t mol_count = 32;
    const std::uint64_t mol_locks =
        ctx.heap.allocAligned(mol_count * 64, 64);
    const std::uint64_t mols = ctx.heap.allocAligned(mol_count * 64, 64);
    const std::uint64_t barrier = ctx.allocBarrier();

    a.at(20).tid(R1);
    a.muli(R9, R1, 53);
    a.addi(R9, R9, 7);
    a.movi(R5, ctx.scaled(interactions));
    Asm::Label inter = a.here();
    // Each interaction updates one pseudo-random molecule under its
    // lock; the macro-expanded lock sites live at distinct source lines
    // (SPLASH ANL macros), so no single line concentrates the HITMs.
    a.at(24).add(R9, R9, R5);
    a.muli(R6, R9, 64);
    a.movi(R7, (mol_count - 1) * 64);
    a.andr(R6, R6, R7);
    a.movi(R2, static_cast<std::int64_t>(mol_locks));
    a.add(R2, R2, R6);
    a.movi(R3, static_cast<std::int64_t>(mols));
    a.add(R3, R3, R6);
    // Dispatch on interaction index to one of `lock_sites` inlined
    // LOCK/UNLOCK macro expansions.
    std::vector<Asm::Label> sites;
    std::vector<Asm::Label> joins;
    Asm::Label join = a.newLabel();
    for (int s = 0; s < lock_sites; ++s)
        sites.push_back(a.newLabel());
    a.movi(R7, lock_sites - 1);
    a.andr(R4, R5, R7);
    for (int s = 0; s < lock_sites - 1; ++s) {
        a.movi(R7, s);
        a.beq(R4, R7, sites[s]);
    }
    a.jmp(sites[lock_sites - 1]);
    for (int s = 0; s < lock_sites; ++s) {
        a.bind(sites[s]);
        const int line = 100 + 10 * s;
        a.at(line);
        emitInlineTtsAcquire(a, R2, R7);
        a.at(line + 2).load(R6, R3, 0, 8);
        a.addi(R6, R6, 1);
        a.store(R3, 0, R6, 8);
        a.at(line + 4);
        emitInlineRelease(a, R2);
        a.jmp(join);
    }
    a.bind(join);
    // Pairwise force compute (private).
    for (int r = 0; r < compute_rounds; ++r) {
        a.at(60 + r).mul(R6, R9, R9);
        a.addi(R6, R6, r + 1);
        a.mul(R6, R6, R9);
        a.shri(R6, R6, 3);
    }
    a.subi(R5, R5, 1);
    a.bne(R5, R0, inter);
    a.at(70);
    emitBarrier(ctx, barrier);
    a.at(72).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeWaterNsquared()
{
    WorkloadDef def;
    def.info.name = "water_nsquared";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildWater(opt, image, "water_nsquared", "water_ns.c", 16, 2600,
                          14);
    };
    return def;
}

WorkloadDef
makeWaterSpatial()
{
    WorkloadDef def;
    def.info.name = "water_spatial";
    def.info.suite = Suite::Splash2x;
    def.info.sheriff = SheriffCompat::WorksSmallInput;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildWater(opt, image, "water_spatial", "water_sp.c", 4, 280,
                          40);
    };
    return def;
}

} // namespace laser::workloads
