/**
 * @file
 * Unit tests for the util module: stats estimators, deterministic RNG,
 * table/CSV rendering and the open-addressing FlatTable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/flat_table.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace laser {
namespace {

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, GeomeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    // Geomean of normalized runtimes is insensitive to ordering.
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
}

TEST(Stats, TrimmedMeanDropsExtremes)
{
    // Paper methodology: mean of 10 runs after dropping min and max.
    std::vector<double> xs = {100.0, 1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(trimmedMean(xs), 2.5);
    // Small samples fall back to the plain mean.
    EXPECT_DOUBLE_EQ(trimmedMean({5.0, 7.0}), 6.0);
}

TEST(Stats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, StddevZeroForConstant)
{
    EXPECT_DOUBLE_EQ(stddev({5.0, 5.0, 5.0}), 0.0);
    EXPECT_NEAR(stddev({1.0, 3.0}), 1.0, 1e-12);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(minOf({3.0, 1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(maxOf({3.0, 1.0, 2.0}), 3.0);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        ASSERT_FALSE(r.chance(0.0));
        ASSERT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(5);
    Rng child = a.fork();
    // The child is decoupled from the parent's subsequent outputs.
    EXPECT_NE(child(), a());
}

TEST(Table, RendersAlignedColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name  | value |"), std::string::npos);
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, PadsShortRows)
{
    TablePrinter t({"a", "b", "c"});
    t.addRow({"x"});
    EXPECT_NE(t.render().find("| x |"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtTimes(1.19), "1.19x");
    EXPECT_EQ(fmtPercent(0.02), "2.0%");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(12), "12");
}

TEST(FlatTable, InsertThenFind)
{
    FlatTable<int> t;
    EXPECT_EQ(t.find(7), nullptr); // miss on the never-allocated table
    t[7] = 70;
    t[0] = 1; // zero is an ordinary key
    ASSERT_NE(t.find(7), nullptr);
    EXPECT_EQ(*t.find(7), 70);
    EXPECT_EQ(*t.find(0), 1);
    EXPECT_EQ(t.find(8), nullptr);
    EXPECT_EQ(t.size(), 2u);
}

TEST(FlatTable, IndexingValueInitializesOnceAndCountsKeysOnce)
{
    FlatTable<int> t;
    EXPECT_EQ(t[42], 0);
    t[42] += 5;
    t[42] += 5;
    EXPECT_EQ(t[42], 10);
    EXPECT_EQ(t.size(), 1u);
    // find never inserts.
    EXPECT_EQ(t.find(43), nullptr);
    EXPECT_EQ(t.size(), 1u);
}

TEST(FlatTable, KeepsEveryEntryAcrossSeveralRehashes)
{
    // 5000 keys take the 16-slot table through nine doublings. Strided
    // keys (line numbers of one array) and keys that differ only in
    // high bits both land in probe clusters.
    FlatTable<std::uint64_t> t;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 2500; ++i) {
        keys.push_back(0x40000 + 3 * i);
        keys.push_back(i << 40);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        t[keys[i]] = keys[i] ^ 0x5a5a;
        EXPECT_EQ(t.size(), i + 1);
    }
    for (std::uint64_t k : keys) {
        ASSERT_NE(t.find(k), nullptr) << k;
        EXPECT_EQ(*t.find(k), k ^ 0x5a5a);
    }
    EXPECT_EQ(t.find(0x40001), nullptr);
    EXPECT_EQ(t.find(std::uint64_t{1} << 63), nullptr);
    EXPECT_TRUE(t.allOf([](std::uint64_t v) { return v != 0; }));
    EXPECT_FALSE(
        t.allOf([](std::uint64_t v) { return v != (0x40000 ^ 0x5a5a); }));
}

TEST(FlatTable, MovesOwningValuesOnGrowth)
{
    FlatTable<std::unique_ptr<int>> t;
    for (int i = 0; i < 100; ++i)
        t[static_cast<std::uint64_t>(i)] = std::make_unique<int>(i);
    for (int i = 0; i < 100; ++i) {
        const std::unique_ptr<int> *p = t.find(static_cast<std::uint64_t>(i));
        ASSERT_NE(p, nullptr);
        ASSERT_NE(p->get(), nullptr);
        EXPECT_EQ(**p, i);
    }
}

TEST(FlatTable, TryEmplaceInsertsOnceAndValueInitializes)
{
    FlatTable<std::uint64_t> t;
    auto [v, inserted] = t.tryEmplace(9);
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 0u);
    *v = 90;
    auto [again, inserted_again] = t.tryEmplace(9);
    EXPECT_FALSE(inserted_again);
    EXPECT_EQ(again, v); // no new key since, so the pointer still holds
    EXPECT_EQ(*again, 90u);
    EXPECT_EQ(t.size(), 1u);
    // Across rehashes: each key reports inserted exactly once.
    for (std::uint64_t k = 0; k < 1000; ++k) {
        auto [p, fresh] = t.tryEmplace(k * 64);
        EXPECT_TRUE(fresh) << k;
        EXPECT_EQ(*p, 0u) << k;
        ++*p;
    }
    for (std::uint64_t k = 0; k < 1000; ++k)
        EXPECT_FALSE(t.tryEmplace(k * 64).second) << k;
    EXPECT_EQ(t.size(), 1001u);
    EXPECT_EQ(*t.find(64), 1u);
    EXPECT_EQ(*t.find(9), 90u);
}

TEST(FlatTable, MutableFindWritesThrough)
{
    FlatTable<int> t;
    EXPECT_EQ(t.find(5), nullptr); // empty table, mutable overload
    t[5] = 1;
    int *p = t.find(5);
    ASSERT_NE(p, nullptr);
    *p = 55;
    EXPECT_EQ(*t.find(5), 55);
    const FlatTable<int> &ct = t;
    EXPECT_EQ(*ct.find(5), 55);
    EXPECT_EQ(t.find(6), nullptr);
}

TEST(FlatTable, ForEachVisitsEveryKeyOnceAfterRehashes)
{
    // 3000 keys: the 16-slot table doubles nine times.
    FlatTable<std::uint64_t> t;
    std::set<std::uint64_t> inserted;
    for (std::uint64_t i = 0; i < 1500; ++i) {
        for (std::uint64_t k : {i * 8, (i + 1) << 44}) {
            t[k] = k + 1;
            inserted.insert(k);
        }
    }
    ASSERT_EQ(t.size(), inserted.size());
    std::multiset<std::uint64_t> visited;
    t.forEach([&](std::uint64_t key, std::uint64_t &value) {
        EXPECT_EQ(value, key + 1);
        value = 0; // writes through
        visited.insert(key);
    });
    EXPECT_EQ(visited.size(), inserted.size());
    EXPECT_TRUE(std::equal(visited.begin(), visited.end(),
                           inserted.begin(), inserted.end()));
    EXPECT_TRUE(t.allOf([](std::uint64_t v) { return v == 0; }));
    std::size_t const_visits = 0;
    std::as_const(t).forEach(
        [&](std::uint64_t, const std::uint64_t &) { ++const_visits; });
    EXPECT_EQ(const_visits, inserted.size());
    FlatTable<int> empty;
    empty.forEach([](std::uint64_t, int &) { ADD_FAILURE(); });
}

TEST(ThreadPool, ParallelForRunsEveryIndex)
{
    util::ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, SuppressedExceptionsNoted)
{
    util::ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(16, [&](std::size_t i) {
            ++ran;
            throw std::runtime_error("job " + std::to_string(i));
        });
        FAIL() << "parallelFor should rethrow the first exception";
    } catch (const std::exception &e) {
        // Every job ran despite the failures; the rethrown message
        // carries a note about the 15 suppressed ones.
        EXPECT_EQ(ran.load(), 16);
        EXPECT_NE(std::string(e.what()).find(
                      "15 additional exception(s)"),
                  std::string::npos);
    }
}

TEST(ThreadPool, SingleExceptionRethrownUntouched)
{
    util::ThreadPool pool(2);
    try {
        pool.parallelFor(8, [](std::size_t i) {
            if (i == 3)
                throw std::out_of_range("only one");
        });
        FAIL() << "parallelFor should rethrow";
    } catch (const std::out_of_range &e) {
        // No suppressed siblings: the original type and message
        // survive.
        EXPECT_STREQ(e.what(), "only one");
    }
}

} // namespace
} // namespace laser
