/**
 * @file
 * Unit tests for src/util and src/stats: formatting, RNG determinism,
 * histograms, summary statistics and the table printer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/stats/histogram.hpp"
#include "src/stats/report.hpp"
#include "src/stats/table.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("abc"), "abc");
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strprintf(""), "");
}

TEST(Strprintf, LongStringsDoNotTruncate)
{
    std::string big(10000, 'a');
    std::string out = strprintf("%s!", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 1);
    EXPECT_EQ(out.back(), '!');
}

TEST(Pcg32, DeterministicStream)
{
    Pcg32 a(123, 7);
    Pcg32 b(123, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU32() == b.nextU32() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Pcg32, FloatRange)
{
    Pcg32 rng(99);
    for (int i = 0; i < 10000; ++i) {
        float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(Pcg32, RangeRespectsBounds)
{
    Pcg32 rng(5);
    for (int i = 0; i < 10000; ++i) {
        float f = rng.nextRange(-3.0f, 7.0f);
        EXPECT_GE(f, -3.0f);
        EXPECT_LT(f, 7.0f);
    }
}

TEST(Pcg32, BoundedIsUnbiasedEnough)
{
    Pcg32 rng(31337);
    constexpr uint32_t kBound = 7;
    uint64_t counts[kBound] = {};
    constexpr int kSamples = 70000;
    for (int i = 0; i < kSamples; ++i) {
        uint32_t v = rng.nextBounded(kBound);
        ASSERT_LT(v, kBound);
        ++counts[v];
    }
    for (uint64_t c : counts) {
        EXPECT_GT(c, kSamples / kBound * 0.9);
        EXPECT_LT(c, kSamples / kBound * 1.1);
    }
}

TEST(Pcg32, BoundedEdgeCases)
{
    Pcg32 rng(1);
    EXPECT_EQ(rng.nextBounded(0), 0u);
    EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Splitmix64, AvalanchesNearbyKeys)
{
    std::set<uint64_t> outputs;
    for (uint64_t i = 0; i < 1000; ++i)
        outputs.insert(splitmix64(i));
    EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Histogram, BasicCounting)
{
    Histogram h(15);
    h.add(0);
    h.add(3);
    h.add(3);
    h.add(15);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.maxSeen(), 15u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 3 + 3 + 15) / 4.0);
}

TEST(Histogram, SaturatesAtLastBucket)
{
    Histogram h(7);
    h.add(100);
    EXPECT_EQ(h.bucket(7), 1u);
    // The sample is clamped *before* any statistic is credited, so
    // maxSeen reports the saturated bucket, not the raw value.
    EXPECT_EQ(h.maxSeen(), 7u);
    EXPECT_EQ(h.percentile(100.0), 7u);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(Histogram, SaturatedMeanAgreesWithPercentiles)
{
    // Regression: out-of-range samples used to credit their raw value
    // into the sum while the bucket counts clamped, so mean() could
    // exceed the largest value percentile() can ever return. Every
    // statistic must describe the same clamped distribution.
    Histogram h(7);
    for (uint32_t v : {3u, 50u, 100u, 1000u})
        h.add(v);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(7), 3u);
    EXPECT_EQ(h.maxSeen(), 7u);
    // Clamped samples are 3, 7, 7, 7.
    EXPECT_DOUBLE_EQ(h.mean(), 6.0);
    EXPECT_EQ(h.median(), 7u);
    EXPECT_EQ(h.p50(), 7u);
    EXPECT_EQ(h.p99(), 7u);
    EXPECT_LE(h.mean(), static_cast<double>(h.percentile(100.0)));
}

TEST(Histogram, Median)
{
    Histogram h(31);
    for (uint32_t v : {1u, 2u, 2u, 3u, 9u})
        h.add(v);
    EXPECT_EQ(h.median(), 2u);
    Histogram empty(31);
    EXPECT_EQ(empty.median(), 0u);
}

TEST(Histogram, PercentilesMatchNearestRankReference)
{
    // Nearest-rank definition: the smallest value whose cumulative
    // count reaches ceil(p/100 * n), computed here from the sorted
    // sample list directly.
    std::vector<uint32_t> samples = {1, 2, 2, 3, 5, 8, 8, 9, 13, 40};
    Histogram h(63);
    for (uint32_t v : samples)
        h.add(v);
    auto reference = [&](double p) {
        size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(samples.size())));
        if (rank < 1)
            rank = 1;
        return samples[rank - 1]; // samples are sorted
    };
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0})
        EXPECT_EQ(h.percentile(p), reference(p)) << "p" << p;
    EXPECT_EQ(h.p50(), reference(50.0));
    EXPECT_EQ(h.p90(), reference(90.0));
    EXPECT_EQ(h.p99(), reference(99.0));
}

TEST(Histogram, PercentileEdgeCases)
{
    Histogram empty(15);
    EXPECT_EQ(empty.percentile(50.0), 0u);

    Histogram one(15);
    one.add(7);
    for (double p : {0.0, 1.0, 50.0, 100.0, 250.0})
        EXPECT_EQ(one.percentile(p), 7u) << "p" << p;

    // Even sample count: percentile(50) is the upper median while
    // median() keeps returning the lower median.
    Histogram even(15);
    for (uint32_t v : {1u, 2u, 3u, 4u})
        even.add(v);
    EXPECT_EQ(even.median(), 2u);
    EXPECT_EQ(even.percentile(50.0), 2u); // ceil(0.5*4)=2nd sample
    EXPECT_EQ(even.percentile(75.0), 3u);
    EXPECT_EQ(even.percentile(76.0), 4u);

    // Saturating bucket: samples beyond the range still rank.
    Histogram sat(7);
    sat.add(3);
    sat.add(100);
    EXPECT_EQ(sat.percentile(99.0), 7u); // clamped into last bucket
}

TEST(Histogram, PercentilesSurviveJsonEmission)
{
    Histogram h(31);
    for (uint32_t v : {1u, 2u, 2u, 3u, 9u})
        h.add(v);
    JsonValue j = toJson(h);
    EXPECT_EQ(j.numberOr("p50", 0), static_cast<double>(h.p50()));
    EXPECT_EQ(j.numberOr("p90", 0), static_cast<double>(h.p90()));
    EXPECT_EQ(j.numberOr("p99", 0), static_cast<double>(h.p99()));
    EXPECT_EQ(j.numberOr("median", 0), static_cast<double>(h.median()));
}

TEST(Histogram, RangeQueries)
{
    Histogram h(31);
    for (uint32_t v = 0; v < 20; ++v)
        h.add(v);
    EXPECT_EQ(h.countInRange(9, 16), 8u);
    EXPECT_DOUBLE_EQ(h.fractionInRange(0, 8), 9.0 / 20.0);
    EXPECT_EQ(h.countInRange(100, 200), 0u);
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a(15), b(15);
    a.add(2);
    b.add(2);
    b.add(14);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.bucket(2), 2u);
    EXPECT_EQ(a.maxSeen(), 14u);
}

TEST(RunningStat, TracksMinMeanMax)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    s.add(2.0);
    s.add(-1.0);
    s.add(5.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t;
    t.setHeader({"a", "bbbb"});
    t.addRow({"xx", "y"});
    std::string out = t.render();
    EXPECT_NE(out.find("a   bbbb"), std::string::npos);
    EXPECT_NE(out.find("xx  y"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.231), "+23.1%");
    EXPECT_EQ(Table::pct(-0.05), "-5.0%");
}

TEST(ParallelFor, VisitsEveryIndexOnce)
{
    for (unsigned threads : {1u, 2u, 7u}) {
        for (size_t chunk : {size_t(1), size_t(3), size_t(100)}) {
            std::vector<std::atomic<int>> visits(57);
            parallelFor(
                visits.size(), [&](size_t i) { ++visits[i]; }, threads,
                chunk);
            for (const auto &v : visits)
                EXPECT_EQ(v.load(), 1) << "threads=" << threads
                                       << " chunk=" << chunk;
        }
    }
}

TEST(ParallelFor, ZeroIterationsIsANoop)
{
    bool called = false;
    parallelFor(0, [&](size_t) { called = true; }, 4);
    EXPECT_FALSE(called);
}

TEST(ParallelFor, WorkerExceptionRethrownOnCaller)
{
    // Pre-fix behaviour was std::terminate; now the first exception
    // must surface on the calling thread after all workers joined.
    for (unsigned threads : {1u, 4u}) {
        EXPECT_THROW(
            parallelFor(
                100,
                [&](size_t i) {
                    if (i == 13)
                        throw std::runtime_error("boom");
                },
                threads),
            std::runtime_error);
    }
}

TEST(ParallelFor, ExceptionAbandonsRemainingIterations)
{
    std::atomic<size_t> executed{0};
    try {
        parallelFor(
            100000,
            [&](size_t) {
                ++executed;
                throw std::runtime_error("first");
            },
            4);
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &) {
    }
    // Workers drain out after the failure; far fewer than all
    // iterations may run (each live worker can finish at most its
    // current chunk).
    EXPECT_LT(executed.load(), 100000u);
}

TEST(ParallelFor, ChunkedResultsMatchUnchunked)
{
    std::vector<uint64_t> a(1000), b(1000);
    parallelFor(a.size(), [&](size_t i) { a[i] = i * i; }, 4, 1);
    parallelFor(b.size(), [&](size_t i) { b[i] = i * i; }, 4, 64);
    EXPECT_EQ(a, b);
}

TEST(ParallelFor, ThrowMidChunkRethrownAndIndexValid)
{
    // A throw from the middle of a claimed chunk must surface on the
    // caller like any other worker throw, and the thrower's chunk must
    // stop at the throwing index (no later iteration of that chunk may
    // run). Stress across chunk sizes and repeated rounds to shake out
    // racy variants of the drain-out path.
    for (size_t chunk : {size_t(2), size_t(16), size_t(64)}) {
        for (int round = 0; round < 8; ++round) {
            constexpr size_t kN = 4096;
            std::vector<std::atomic<int>> visits(kN);
            const size_t bad = 1000 + static_cast<size_t>(round) * 17;
            try {
                parallelFor(
                    kN,
                    [&](size_t i) {
                        ++visits[i];
                        if (i == bad)
                            throw std::runtime_error("mid-chunk");
                    },
                    4, chunk);
                FAIL() << "expected rethrow (chunk=" << chunk << ")";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "mid-chunk");
            }
            // The throwing index ran exactly once; indices after it in
            // the same chunk were abandoned.
            EXPECT_EQ(visits[bad].load(), 1);
            size_t chunk_end = (bad / chunk + 1) * chunk;
            for (size_t i = bad + 1; i < chunk_end && i < kN; ++i)
                EXPECT_EQ(visits[i].load(), 0)
                    << "index " << i << " ran after its chunk threw";
            // Nothing ever runs twice, even while workers drain out.
            for (size_t i = 0; i < kN; ++i)
                EXPECT_LE(visits[i].load(), 1);
        }
    }
}

TEST(ParallelFor, ThreadsClampedToChunksStillThrows)
{
    // More threads than chunks (the pre-fix clamp bug territory): the
    // clamp must leave at least one worker and exceptions still
    // propagate. n=60, chunk=100 -> a single chunk, serial path.
    std::atomic<int> ran{0};
    EXPECT_THROW(
        parallelFor(
            60,
            [&](size_t i) {
                ++ran;
                if (i == 30)
                    throw std::logic_error("single-chunk");
            },
            16, 100),
        std::logic_error);
    EXPECT_EQ(ran.load(), 31);
}

TEST(ParallelForAfter, RunsEveryTaskOnceAfterItsDependency)
{
    // Tasks 0-5 are ready at once; each later task waits for one
    // earlier task. A task must start only after its dependency ended.
    constexpr size_t kN = 48;
    std::vector<size_t> after(kN, kNoTask);
    for (size_t i = 6; i < kN; ++i)
        after[i] = (i * 7 + 3) % i;
    for (unsigned threads : {1u, 2u, 4u}) {
        std::atomic<uint64_t> clock{0};
        std::vector<std::atomic<int>> runs(kN);
        std::vector<uint64_t> started(kN), ended(kN);
        parallelForAfter(
            kN, after, [](size_t i) { return i % 3; },
            [&](size_t i) {
                started[i] = ++clock;
                ++runs[i];
                ended[i] = ++clock;
            },
            threads);
        for (size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads;
            if (after[i] != kNoTask) {
                EXPECT_LT(ended[after[i]], started[i])
                    << "task " << i << " threads=" << threads;
            }
        }
    }
}

TEST(ParallelForAfter, HighestPriorityReadyTaskFirst)
{
    // One worker makes the order exact: the highest priority among the
    // ready tasks, lowest index on ties. Task 4 waits for task 3, so
    // despite its priority it runs last.
    std::vector<size_t> after = {kNoTask, kNoTask, kNoTask, kNoTask, 3};
    std::vector<uint64_t> priority = {5, 9, 5, 1, 7};
    std::vector<size_t> order;
    parallelForAfter(
        after.size(), after, [&](size_t i) { return priority[i]; },
        [&](size_t i) { order.push_back(i); }, 1);
    EXPECT_EQ(order, (std::vector<size_t>{1, 0, 2, 3, 4}));

    // Tasks released by a finished task join the ranking.
    std::vector<size_t> waits = {kNoTask, kNoTask, 0, 0};
    std::vector<uint64_t> high = {1, 2, 9, 8};
    order.clear();
    parallelForAfter(
        waits.size(), waits, [&](size_t i) { return high[i]; },
        [&](size_t i) { order.push_back(i); }, 1);
    EXPECT_EQ(order, (std::vector<size_t>{1, 0, 2, 3}));
}

TEST(ParallelForAfter, ExceptionRethrownAndDependentsNeverRun)
{
    // The failing task holds back half the tasks; the other workers
    // must not wait for it forever, and its dependents must not run.
    constexpr size_t kN = 64;
    std::vector<size_t> after(kN, kNoTask);
    for (size_t i = 32; i < kN; ++i)
        after[i] = 5;
    for (unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> runs(kN);
        try {
            parallelForAfter(
                kN, after, [](size_t) { return uint64_t{0}; },
                [&](size_t i) {
                    ++runs[i];
                    if (i == 5)
                        throw std::runtime_error("lead failed");
                },
                threads);
            FAIL() << "expected rethrow, threads=" << threads;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "lead failed");
        }
        for (size_t i = 32; i < kN; ++i)
            EXPECT_EQ(runs[i].load(), 0) << "task " << i;
    }
}

TEST(ParallelForAfter, RejectsMalformedDependencies)
{
    auto none = [](size_t) { return uint64_t{0}; };
    auto nop = [](size_t) {};
    EXPECT_THROW(parallelForAfter(2, {kNoTask}, none, nop),
                 std::invalid_argument);
    EXPECT_THROW(parallelForAfter(2, {kNoTask, 1}, none, nop),
                 std::invalid_argument);
    EXPECT_THROW(parallelForAfter(2, {1, kNoTask}, none, nop),
                 std::invalid_argument);
    parallelForAfter(0, {}, none, nop);
}

} // namespace
} // namespace sms
