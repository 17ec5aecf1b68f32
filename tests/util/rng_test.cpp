#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace anc {
namespace {

TEST(Pcg32, SameSeedSameSequence)
{
    Pcg32 a{42, 7};
    Pcg32 b{42, 7};
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a{42, 7};
    Pcg32 b{43, 7};
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next_u32() == b.next_u32());
    EXPECT_LT(same, 3);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a{42, 1};
    Pcg32 b{42, 2};
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next_u32() == b.next_u32());
    EXPECT_LT(same, 3);
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng{1};
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.next_double();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
    }
}

TEST(Pcg32, DoubleMeanNearHalf)
{
    Pcg32 rng{2};
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.next_double();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Pcg32, RangeIsInclusiveAndCovers)
{
    Pcg32 rng{3};
    std::vector<int> seen(6, 0);
    for (int i = 0; i < 6000; ++i) {
        const std::uint32_t v = rng.next_in_range(10, 15);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 15u);
        ++seen[v - 10];
    }
    for (const int count : seen)
        EXPECT_GT(count, 800); // each of 6 values expected ~1000 times
}

TEST(Pcg32, RangeSingleValue)
{
    Pcg32 rng{4};
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.next_in_range(7, 7), 7u);
}

TEST(Pcg32, GaussianMoments)
{
    Pcg32 rng{5};
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.next_gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Pcg32, BernoulliFrequency)
{
    Pcg32 rng{6};
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += (rng.next_double() < 0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Pcg32, ForkedStreamsAreIndependent)
{
    Pcg32 parent{7};
    Pcg32 a = parent.fork(1);
    Pcg32 b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next_u32() == b.next_u32());
    EXPECT_LT(same, 3);
}

TEST(Pcg32, WorksWithStdShuffle)
{
    Pcg32 rng{8};
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    const std::vector<int> before = v;
    std::shuffle(v.begin(), v.end(), rng);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, before);
}

} // namespace
} // namespace anc
