/**
 * @file
 * Phoenix 1.0 workload kernels (Section 7 of the paper; Ranger et al.,
 * HPCA'07). Each kernel reproduces the benchmark's sharing structure:
 *
 *  - linear_regression: the Figure 2 bug — an array of 64-byte lreg_args
 *    structs that malloc leaves unaligned, with per-iteration stores of
 *    the running sums (the -O3 "partial register caching" behaviour
 *    converts its read-write false sharing into write-write).
 *  - histogram / histogram': contiguous per-thread bin arrays whose
 *    boundary lines are shared; whether the false sharing materializes
 *    depends entirely on the input's pixel distribution.
 *  - kmeans: true sharing on the global `modified` flag plus migratory
 *    contention on main-thread-allocated sum objects handed to workers.
 *  - reverse_index / word_count: false sharing on the use_len[] array of
 *    adjacent per-thread counters.
 *  - matrix_multiply, pca, string_match: contention-free baselines.
 */

#include "workloads/common.h"
#include "workloads/suites.h"

namespace laser::workloads {

using namespace laser::isa;

// -----------------------------------------------------------------------
// linear_regression
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildLinearRegression(const BuildOptions &opt, Image image)
{
    Ctx ctx("linear_regression", "lreg.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t points_per_thread = ctx.scaled(2600);
    const std::uint64_t points = ctx.heap.alloc(
        std::uint64_t(points_per_thread) * opt.numThreads * 16);
    // lreg_args array: tid@0 points@8 num_elems@16 SX@24 SY@32 SXX@40
    // SYY@48 SXY@56 — 64 bytes/element. Plain malloc leaves it at offset
    // 16 (mod 64) so every element straddles two lines (Figure 2); the
    // manual fix aligns it to a line boundary (Section 7.4.1).
    const std::uint64_t args =
        opt.manualFix
            ? ctx.heap.allocAligned(64ull * opt.numThreads, 64)
            : ctx.heap.alloc(64ull * opt.numThreads);

    // Input: a few deterministic (x, y) points; the kernel's results are
    // checked by tests.
    for (int t = 0; t < opt.numThreads; ++t) {
        for (int i = 0; i < 4; ++i) {
            const std::uint64_t p =
                points + (std::uint64_t(t) * points_per_thread + i) * 16;
            ctx.init64(p, 2 + i);
            ctx.init64(p + 8, 3 + i);
        }
    }

    a.at(20).tid(R1);
    // r2 = &args[tid]
    a.at(22);
    emitThreadAddr(a, R2, R1, args, 64, R3);
    // r4 = my points chunk, r5 = count
    a.at(24);
    emitThreadAddr(a, R4, R1, points, points_per_thread * 16, R3);
    a.at(25).movi(R5, points_per_thread);
    // Running sums live in registers (the -O3 behaviour), but every
    // iteration still stores them back to the struct.
    a.movi(R3, 0);  // SX
    a.movi(R9, 0);  // SY
    a.movi(R10, 0); // SXX
    a.movi(R11, 0); // SYY
    a.movi(R12, 0); // SXY

    Asm::Label loop = a.here();
    a.at(40).load(R6, R4, 0, 8);  // x
    a.at(43).add(R3, R3, R6);
    a.at(41).load(R7, R4, 8, 8);  // y
    a.at(44).add(R9, R9, R7);
    a.at(45).mul(R8, R6, R6);
    a.add(R10, R10, R8);
    a.at(46).mul(R8, R7, R7);
    a.add(R11, R11, R8);
    a.at(47).mul(R8, R6, R7);
    a.add(R12, R12, R8);
    // The write-write false sharing: five stores per iteration into the
    // unaligned struct (lreg.c:50-54).
    a.at(50).store(R2, 24, R3, 8);
    a.at(51).store(R2, 32, R9, 8);
    a.at(52).store(R2, 40, R10, 8);
    a.at(53).store(R2, 48, R11, 8);
    a.at(54).store(R2, 56, R12, 8);
    a.at(56).addi(R4, R4, 16);
    a.at(57).subi(R5, R5, 1);
    a.at(58).bne(R5, R0, loop);
    a.at(60).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeLinearRegression()
{
    WorkloadDef def;
    def.info.name = "linear_regression";
    def.info.suite = Suite::Phoenix;
    def.info.bugs.push_back(
        {"lreg.c:52", BugType::FalseSharing,
         "per-iteration stores of SX..SXY into the unaligned lreg_args "
         "array (Figure 2)",
         {"lreg.c:50", "lreg.c:51", "lreg.c:53", "lreg.c:54", "lreg.c:40",
          "lreg.c:41", "lreg.c:43", "lreg.c:44", "lreg.c:45", "lreg.c:46",
          "lreg.c:47", "lreg.c:56", "lreg.c:57", "lreg.c:58"}});
    def.info.sheriff = SheriffCompat::Works;
    def.info.sheriffDetectsBug = false; // Table 1: Sheriff-Detect FN
    def.info.hasManualFix = true;
    def.builder = buildLinearRegression;
    return def;
}

// -----------------------------------------------------------------------
// histogram / histogram'
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildHistogram(const BuildOptions &opt, Image image, bool alt_input)
{
    Ctx ctx(alt_input ? "histogram_alt" : "histogram", "histogram.c", opt,
            image);
    Asm &a = ctx.a;

    const std::int64_t pixels_per_thread = ctx.scaled(26000);
    const std::uint64_t pixels = ctx.heap.alloc(
        std::uint64_t(pixels_per_thread) * opt.numThreads);
    // Per-thread bin arrays, contiguous: 256 4-byte bins each. Plain
    // malloc puts the block at offset 16 (mod 64), so each boundary line
    // holds thread t's bins 252-255 and thread t+1's bins 0-11. The
    // manual fix pads each array to a line multiple and aligns the block.
    const std::int64_t stride = opt.manualFix ? 1088 : 1024;
    const std::uint64_t counters =
        opt.manualFix
            ? ctx.heap.allocAligned(std::uint64_t(stride) * opt.numThreads,
                                    64)
            : ctx.heap.alloc(std::uint64_t(stride) * opt.numThreads);

    // Input synthesis: the default image avoids the boundary bins
    // entirely; the alternative image (histogram') concentrates on them.
    // The rng draws feed only the image, so a build without the image
    // skips them.
    const std::int64_t input_pixels =
        ctx.synthesizesImage() ? pixels_per_thread * opt.numThreads : 0;
    for (std::int64_t i = 0; i < input_pixels; ++i) {
        std::uint8_t pixel;
        if (alt_input) {
            // 95% of pixels land in the falsely-shared boundary bins.
            if (ctx.rng.chance(0.95)) {
                pixel = ctx.rng.chance(0.5)
                            ? std::uint8_t(252 + ctx.rng.below(4))
                            : std::uint8_t(ctx.rng.below(4));
            } else {
                pixel = std::uint8_t(16 + ctx.rng.below(224));
            }
        } else {
            pixel = std::uint8_t(16 + ctx.rng.below(224));
        }
        ctx.init8(pixels + std::uint64_t(i), pixel);
    }

    a.at(20).tid(R1);
    a.at(22);
    emitThreadAddr(a, R2, R1, counters, stride, R3);
    a.at(24);
    emitThreadAddr(a, R4, R1, pixels, pixels_per_thread, R3);
    a.at(25).movi(R5, pixels_per_thread);
    a.movi(R9, 1);

    Asm::Label loop = a.here();
    a.at(33).load(R6, R4, 0, 1);   // pixel
    a.at(34).shli(R7, R6, 2);      // bin byte offset
    a.add(R7, R2, R7);
    // The contending increment (histogram.c:35): an RMW, so its HITMs
    // are load-class and PEBS reports them precisely.
    a.at(35).addmem(R7, 0, R9, 4);
    a.at(36).addi(R4, R4, 1);
    a.at(37).subi(R5, R5, 1);
    a.at(38).bne(R5, R0, loop);
    a.at(40).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeHistogram()
{
    WorkloadDef def;
    def.info.name = "histogram";
    def.info.suite = Suite::Phoenix;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildHistogram(opt, image, false);
    };
    return def;
}

WorkloadDef
makeHistogramAlt()
{
    WorkloadDef def;
    def.info.name = "histogram'";
    def.info.suite = Suite::Phoenix;
    def.info.bugs.push_back(
        {"histogram.c:35", BugType::FalseSharing,
         "unpadded per-thread bin arrays: boundary lines are falsely "
         "shared when the input hits edge bins",
         {"histogram.c:33", "histogram.c:34", "histogram.c:36",
          "histogram.c:37", "histogram.c:38"}});
    def.info.sheriff = SheriffCompat::Works;
    def.info.sheriffDetectsBug = false; // Table 1: Sheriff-Detect FN
    def.info.hasManualFix = true;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildHistogram(opt, image, true);
    };
    return def;
}

// -----------------------------------------------------------------------
// kmeans
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildKmeans(const BuildOptions &opt, Image image)
{
    Ctx ctx("kmeans", "kmeans.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t rounds = ctx.scaled(110);
    const std::int64_t items_per_round = 12;
    const int workers = opt.numThreads - 1;

    // The global `modified` flag (true sharing; Section 2's example).
    const std::uint64_t modified = ctx.globals.allocAligned(64, 64);
    // Per-worker mailboxes, line-padded: {ready flag, object ptr, done}.
    const std::uint64_t mailboxes = ctx.globals.allocAligned(
        64ull * opt.numThreads, 64);
    // Sum objects: allocated round by round by the main thread and
    // handed off — the migratory contention of Section 7.4.2. 40-byte
    // objects packed by malloc.
    const std::uint64_t sums = ctx.heap.alloc(
        std::uint64_t(rounds) * workers * 48);
    // Private points for the distance computation.
    const std::uint64_t points = ctx.heap.alloc(
        std::uint64_t(opt.numThreads) * 4096);

    Asm::Label worker = a.newLabel();
    a.at(20).tid(R1);
    a.bne(R1, R0, worker);

    // ---------------- main thread (t0): allocate + hand off ----------
    a.at(30).movi(R2, rounds);
    Asm::Label round_loop = a.here();
    {
        // For each worker: initialize a fresh sum object, publish it.
        a.at(32).movi(R3, static_cast<std::int64_t>(sums));
        // object index = (rounds - r2) * workers
        a.movi(R4, rounds);
        a.sub(R4, R4, R2);
        a.muli(R4, R4, workers * 48);
        a.add(R3, R3, R4);
        for (int w = 0; w < workers; ++w) {
            const std::int64_t obj_off = std::int64_t(w) * 48;
            // Initialize the object (these writes put the lines in t0's
            // cache in M state: the worker's first touch is a HITM).
            a.at(34).store(R3, obj_off + 0, R0, 8);
            a.at(35).store(R3, obj_off + 8, R0, 8);
            a.at(36).store(R3, obj_off + 16, R0, 8);
            // Publish into the worker's mailbox.
            a.at(38).movi(R5,
                          static_cast<std::int64_t>(
                              mailboxes + 64ull * (w + 1)));
            a.addi(R6, R3, obj_off);
            a.store(R5, 8, R6, 8);
            a.at(39).movi(R6, 1);
            a.store(R5, 0, R6, 8); // ready flag
        }
        // Wait for all workers to finish the round.
        for (int w = 0; w < workers; ++w) {
            a.at(42).movi(R5,
                          static_cast<std::int64_t>(
                              mailboxes + 64ull * (w + 1)));
            Asm::Label spin = a.here();
            a.load(R6, R5, 16, 8); // done flag
            a.beq(R6, R0, spin);
            a.store(R5, 16, R0, 8);
        }
        // Read `modified` and reset it (main-thread side of the TS).
        a.at(45).movi(R7, static_cast<std::int64_t>(modified));
        a.at(46).load(R6, R7, 0, 4);
        a.at(47).store(R7, 0, R0, 4);
    }
    a.subi(R2, R2, 1);
    a.bne(R2, R0, round_loop);
    a.at(50).halt();

    // ---------------- workers (t1..t3) --------------------------------
    a.bind(worker);
    a.at(60);
    emitThreadAddr(a, R2, R1, mailboxes, 64, R3);
    emitThreadAddr(a, R9, R1, points, 4096, R3);
    a.at(61).movi(R4, rounds);
    a.movi(R8, static_cast<std::int64_t>(modified));
    Asm::Label wround = a.here();
    {
        // Wait for the handoff.
        a.at(63);
        Asm::Label spin = a.here();
        a.load(R5, R2, 0, 8);
        a.beq(R5, R0, spin);
        a.store(R2, 0, R0, 8);
        a.at(64).load(R3, R2, 8, 8); // object pointer

        // Process items: distance compute + sum-object updates.
        a.movi(R5, items_per_round);
        Asm::Label item = a.here();
        {
            // Private distance computation.
            a.at(70).load(R6, R9, 0, 8);
            a.at(71).mul(R7, R6, R6);
            a.addi(R7, R7, 3);
            a.mul(R7, R7, R6);
            a.at(72).load(R6, R9, 8, 8);
            a.mul(R6, R6, R6);
            a.add(R7, R7, R6);
            // Sum-object update: read-write true sharing with t0's
            // initializing writes (migratory, object changes per round).
            a.at(74).load(R6, R3, 0, 8);
            a.add(R6, R6, R7);
            a.at(75).store(R3, 0, R6, 8);
            a.at(76).load(R6, R3, 8, 8);
            a.addi(R6, R6, 1);
            a.at(77).store(R3, 8, R6, 8);
            // The `modified` flag: check-then-set, every item
            // (kmeans.c:80 — the Section 2 true-sharing example).
            a.at(80).load(R6, R8, 0, 4);
            a.at(81).movi(R7, 1);
            a.at(82).store(R8, 0, R7, 4);
        }
        a.subi(R5, R5, 1);
        a.bne(R5, R0, item);
        // Signal completion.
        a.at(85).movi(R6, 1);
        a.store(R2, 16, R6, 8);
    }
    a.subi(R4, R4, 1);
    a.bne(R4, R0, wround);
    a.at(90).halt();
    return ctx.finish();
}

/** Manual fix: sums on the worker stack, `modified` cached (one write). */
WorkloadBuild
buildKmeansFixed(const BuildOptions &opt, Image image)
{
    Ctx ctx("kmeans", "kmeans.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t rounds = ctx.scaled(110);
    const std::int64_t items_per_round = 12;
    const std::uint64_t modified = ctx.globals.allocAligned(64, 64);
    const std::uint64_t mailboxes =
        ctx.globals.allocAligned(64ull * opt.numThreads, 64);
    const std::uint64_t points =
        ctx.heap.alloc(std::uint64_t(opt.numThreads) * 4096);

    Asm::Label worker = a.newLabel();
    a.at(20).tid(R1);
    a.bne(R1, R0, worker);

    // Main thread: only the handoff flags remain (no object init).
    a.at(30).movi(R2, rounds);
    Asm::Label round_loop = a.here();
    for (int w = 1; w < opt.numThreads; ++w) {
        a.at(38).movi(R5,
                      static_cast<std::int64_t>(mailboxes + 64ull * w));
        a.movi(R6, 1);
        a.store(R5, 0, R6, 8);
    }
    for (int w = 1; w < opt.numThreads; ++w) {
        a.at(42).movi(R5,
                      static_cast<std::int64_t>(mailboxes + 64ull * w));
        Asm::Label spin = a.here();
        a.load(R6, R5, 16, 8);
        a.beq(R6, R0, spin);
        a.store(R5, 16, R0, 8);
    }
    a.movi(R7, static_cast<std::int64_t>(modified));
    a.at(46).load(R6, R7, 0, 4);
    a.at(47).store(R7, 0, R0, 4);
    a.subi(R2, R2, 1);
    a.bne(R2, R0, round_loop);
    a.at(50).halt();

    // Workers: sums on the stack (r15), single modified write per round.
    a.bind(worker);
    a.at(60);
    emitThreadAddr(a, R2, R1, mailboxes, 64, R3);
    emitThreadAddr(a, R9, R1, points, 4096, R3);
    a.at(61).movi(R4, rounds);
    a.movi(R8, static_cast<std::int64_t>(modified));
    Asm::Label wround = a.here();
    {
        a.at(63);
        Asm::Label spin = a.here();
        a.load(R5, R2, 0, 8);
        a.beq(R5, R0, spin);
        a.store(R2, 0, R0, 8);
        // Stack-allocated sum object.
        a.at(64).subi(R3, R15, 64);
        a.store(R3, 0, R0, 8);
        a.store(R3, 8, R0, 8);

        a.movi(R5, items_per_round);
        Asm::Label item = a.here();
        {
            a.at(70).load(R6, R9, 0, 8);
            a.at(71).mul(R7, R6, R6);
            a.addi(R7, R7, 3);
            a.mul(R7, R7, R6);
            a.at(72).load(R6, R9, 8, 8);
            a.mul(R6, R6, R6);
            a.add(R7, R7, R6);
            a.at(74).load(R6, R3, 0, 8);
            a.add(R6, R6, R7);
            a.at(75).store(R3, 0, R6, 8);
            a.at(76).load(R6, R3, 8, 8);
            a.addi(R6, R6, 1);
            a.at(77).store(R3, 8, R6, 8);
        }
        a.subi(R5, R5, 1);
        a.bne(R5, R0, item);
        // Single modified write per round (the Section 2 rewrite).
        a.at(80).movi(R7, 1);
        a.at(82).store(R8, 0, R7, 4);
        a.at(85).movi(R6, 1);
        a.store(R2, 16, R6, 8);
    }
    a.subi(R4, R4, 1);
    a.bne(R4, R0, wround);
    a.at(90).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeKmeans()
{
    WorkloadDef def;
    def.info.name = "kmeans";
    def.info.suite = Suite::Phoenix;
    // The paper's Table 2 lists the ground-truth type as FS while the
    // Section 7.4.2 text describes the contention as read-write true
    // sharing; we follow Table 2 so the type-accuracy comparison keeps
    // the paper's shape (LASER reports TS for kmeans: a mismatch).
    def.info.bugs.push_back(
        {"kmeans.c:82", BugType::FalseSharing,
         "redundant per-item writes to the global `modified` flag plus "
         "migratory contention on handed-off sum objects",
         {"kmeans.c:80", "kmeans.c:81"}});
    def.info.sheriff = SheriffCompat::Crash;
    def.info.hasManualFix = true;
    def.builder = [](const BuildOptions &opt, Image image) {
        return opt.manualFix ? buildKmeansFixed(opt, image)
                             : buildKmeans(opt, image);
    };
    return def;
}

// -----------------------------------------------------------------------
// matrix_multiply
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildMatrixMultiply(const BuildOptions &opt, Image image)
{
    Ctx ctx("matrix_multiply", "mm.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t n = 24;
    const std::int64_t cells = ctx.scaled(n * n / opt.numThreads);
    const std::uint64_t am = ctx.heap.allocAligned(n * n * 8, 64);
    const std::uint64_t bm = ctx.heap.allocAligned(n * n * 8, 64);
    const std::uint64_t cm = ctx.heap.allocAligned(
        (n * n + 64) * 8 * opt.numThreads, 64);
    for (int i = 0; i < 16; ++i) {
        ctx.init64(am + 8ull * i, i + 1);
        ctx.init64(bm + 8ull * i, 2 * i + 1);
    }

    a.at(18).tid(R1);
    emitThreadAddr(a, R2, R1, cm, (n * n + 64) * 8, R3);
    a.at(20).movi(R4, cells);
    a.movi(R5, static_cast<std::int64_t>(am));
    a.movi(R8, static_cast<std::int64_t>(bm));
    Asm::Label cell = a.here();
    {
        a.movi(R9, 0);
        a.movi(R6, n);
        Asm::Label inner = a.here();
        a.at(24).load(R7, R5, 0, 8);   // A row element (read-shared)
        a.addi(R5, R5, 8);             // interleaved address update
        a.at(25).load(R3, R8, 0, 8);   // B column element (read-shared)
        a.at(26).mul(R7, R7, R3);
        a.add(R9, R9, R7);
        a.addi(R8, R8, 8);
        a.subi(R6, R6, 1);
        a.bne(R6, R0, inner);
        // Private C store.
        a.at(29).store(R2, 0, R9, 8);
        a.addi(R2, R2, 8);
        a.movi(R5, static_cast<std::int64_t>(am));
        a.movi(R8, static_cast<std::int64_t>(bm));
    }
    a.subi(R4, R4, 1);
    a.bne(R4, R0, cell);
    a.at(34).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeMatrixMultiply()
{
    WorkloadDef def;
    def.info.name = "matrix_multiply";
    def.info.suite = Suite::Phoenix;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = buildMatrixMultiply;
    return def;
}

// -----------------------------------------------------------------------
// pca
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildPca(const BuildOptions &opt, Image image)
{
    Ctx ctx("pca", "pca.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t rows = ctx.scaled(200);
    const std::uint64_t matrix = ctx.heap.allocAligned(rows * 32 * 8, 64);
    const std::uint64_t means = ctx.heap.allocAligned(
        64ull * opt.numThreads, 64);
    const std::uint64_t barrier = ctx.allocBarrier();
    for (int i = 0; i < 32; ++i)
        ctx.init64(matrix + 8ull * i, 5 + i);

    a.at(15).tid(R1);
    emitThreadAddr(a, R2, R1, matrix,
                   rows / opt.numThreads * 32 * 8, R3);
    emitThreadAddr(a, R9, R1, means, 64, R3);

    // Phase 1: per-row means (private accumulation, padded output).
    a.at(20).movi(R4, rows / opt.numThreads);
    Asm::Label row = a.here();
    {
        a.movi(R5, 32);
        a.movi(R6, 0);
        Asm::Label col = a.here();
        a.at(23).load(R7, R2, 0, 8);
        a.add(R6, R6, R7);
        a.addi(R2, R2, 8);
        a.subi(R5, R5, 1);
        a.bne(R5, R0, col);
        a.at(27).store(R9, 0, R6, 8);
    }
    a.subi(R4, R4, 1);
    a.bne(R4, R0, row);

    a.at(30);
    emitBarrier(ctx, barrier);

    // Phase 2: covariance-ish pass over the same rows.
    a.at(35).tid(R1);
    emitThreadAddr(a, R2, R1, matrix,
                   rows / opt.numThreads * 32 * 8, R3);
    a.movi(R4, rows / opt.numThreads * 8);
    Asm::Label cov = a.here();
    {
        a.at(38).load(R6, R2, 0, 8);
        a.addi(R6, R6, 2);
        a.at(39).load(R7, R2, 8, 8);
        a.mul(R6, R6, R7);
        a.at(40).load(R7, R9, 0, 8);
        a.sub(R6, R6, R7);
        a.at(41).store(R9, 8, R6, 8);
        a.addi(R2, R2, 32);
    }
    a.subi(R4, R4, 1);
    a.bne(R4, R0, cov);
    a.at(45).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makePca()
{
    WorkloadDef def;
    def.info.name = "pca";
    def.info.suite = Suite::Phoenix;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = buildPca;
    return def;
}

// -----------------------------------------------------------------------
// reverse_index / word_count (the use_len[] pattern)
// -----------------------------------------------------------------------

namespace {

/**
 * Common core of reverse_index and word_count: scan a private chunk of a
 * shared read-only buffer, hash, and increment a per-thread slot of the
 * unpadded use_len[] array every @p items_per_bump items.
 */
WorkloadBuild
buildUseLenKernel(const std::string &name, const std::string &file,
                  const BuildOptions &opt, Image image, std::int64_t items,
                  std::int64_t items_per_bump, int extra_arith)
{
    Ctx ctx(name, file, opt, image);
    Asm &a = ctx.a;

    const std::uint64_t text =
        ctx.heap.alloc(std::uint64_t(items) * opt.numThreads * 8);
    // use_len: one 4-byte counter per thread, all in one cache line
    // (the bug); fixed: one line per counter.
    const std::int64_t stride = opt.manualFix ? 64 : 4;
    const std::uint64_t use_len =
        opt.manualFix
            ? ctx.heap.allocAligned(64ull * opt.numThreads, 64)
            : ctx.heap.alloc(4ull * opt.numThreads);

    a.at(60).tid(R1);
    emitThreadAddr(a, R2, R1, text, items * 8, R3);
    emitThreadAddr(a, R9, R1, use_len, stride, R3);
    a.at(62).movi(R4, items);
    a.movi(R5, items_per_bump);
    a.movi(R8, 1);

    Asm::Label loop = a.here();
    a.at(70).load(R6, R2, 0, 8);
    a.at(71).muli(R7, R6, 31);
    a.xorr(R7, R7, R6);
    for (int i = 0; i < extra_arith; ++i)
        a.at(72).addi(R7, R7, i + 7);
    a.addi(R2, R2, 8);
    a.subi(R5, R5, 1);
    Asm::Label no_bump = a.newLabel();
    a.bne(R5, R0, no_bump);
    // The contending increment (<file>:88): RMW on the shared line.
    a.at(88).addmem(R9, 0, R8, 4);
    a.at(89).movi(R5, items_per_bump);
    a.bind(no_bump);
    a.at(92).subi(R4, R4, 1);
    a.bne(R4, R0, loop);
    a.at(95).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeReverseIndex()
{
    WorkloadDef def;
    def.info.name = "reverse_index";
    def.info.suite = Suite::Phoenix;
    def.info.bugs.push_back(
        {"reverse_index.c:88", BugType::FalseSharing,
         "adjacent per-thread use_len[] counters share one line",
         {"reverse_index.c:89", "reverse_index.c:92"}});
    def.info.sheriff = SheriffCompat::Works;
    def.info.sheriffDetectsBug = true;
    // Sheriff reports only the allocation site inside the program's
    // malloc wrapper (Section 7.1), which is unhelpful and counts as a
    // false positive.
    def.info.sheriffReportLocation = "malloc_wrapper.c:12";
    def.info.hasManualFix = true;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildUseLenKernel("reverse_index", "reverse_index.c", opt,
                                 image, 9000, 12, 2);
    };
    return def;
}

WorkloadDef
makeWordCount()
{
    WorkloadDef def;
    def.info.name = "word_count";
    def.info.suite = Suite::Phoenix;
    // word_count's use_len false sharing is real but does not affect
    // performance (Section 7.4.3); the bug database therefore has no
    // entry, and LASER's (correct) report counts as its one Table 1
    // false positive.
    def.info.sheriff = SheriffCompat::Crash;
    def.builder = [](const BuildOptions &opt, Image image) {
        return buildUseLenKernel("word_count", "word_count.c", opt, image,
                                 11000, 20, 4);
    };
    return def;
}

// -----------------------------------------------------------------------
// string_match
// -----------------------------------------------------------------------

namespace {

WorkloadBuild
buildStringMatch(const BuildOptions &opt, Image image)
{
    Ctx ctx("string_match", "string_match.c", opt, image);
    Asm &a = ctx.a;

    const std::int64_t keys = ctx.scaled(42000);
    const std::uint64_t buffer =
        ctx.heap.alloc(std::uint64_t(keys) * opt.numThreads * 8);
    for (int i = 0; i < 64; ++i)
        ctx.init64(buffer + 8ull * i, 0x6b65795f6b657930ULL + i);

    a.at(12).tid(R1);
    emitThreadAddr(a, R2, R1, buffer, keys * 8, R3);
    a.at(14).movi(R4, keys);
    a.movi(R8, 0x6b65795f6b657931LL); // "key_key1"
    a.movi(R9, 0);

    // The memory-op-saturated scan loop that makes VTune's per-sample
    // interrupts so expensive on this benchmark (Figure 10: ~7x).
    Asm::Label loop = a.here();
    a.at(20).load(R6, R2, 0, 8);
    a.at(21).load(R7, R2, 8, 8);
    a.at(22).xorr(R6, R6, R8);
    Asm::Label miss = a.newLabel();
    a.bne(R6, R0, miss);
    a.addi(R9, R9, 1);
    a.bind(miss);
    a.at(25).addi(R2, R2, 16);
    a.subi(R4, R4, 2);
    a.bne(R4, R0, loop);
    a.at(28).halt();
    return ctx.finish();
}

} // namespace

WorkloadDef
makeStringMatch()
{
    WorkloadDef def;
    def.info.name = "string_match";
    def.info.suite = Suite::Phoenix;
    def.info.sheriff = SheriffCompat::Works;
    def.builder = buildStringMatch;
    return def;
}

} // namespace laser::workloads
