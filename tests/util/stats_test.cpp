#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace anc {
namespace {

TEST(RunningStats, MeanAndVariance)
{
    Running_stats stats;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SampleVarianceUsesBesselCorrection)
{
    Running_stats stats;
    for (const double x : {1.0, 2.0, 3.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.sample_variance(), 1.0);
    EXPECT_NEAR(stats.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStats, FewSamplesHaveZeroVariance)
{
    Running_stats stats;
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    stats.add(3.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MatchesGaussianMoments)
{
    Pcg32 rng{31};
    Running_stats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(3.0 + 2.0 * rng.next_gaussian());
    EXPECT_NEAR(stats.mean(), 3.0, 0.05);
    EXPECT_NEAR(stats.variance(), 4.0, 0.1);
}

TEST(Cdf, QuantilesOfKnownSamples)
{
    Cdf cdf;
    for (int i = 1; i <= 100; ++i)
        cdf.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
    EXPECT_NEAR(cdf.quantile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(cdf.quantile(0.25), 25.75, 1e-9);
}

TEST(Cdf, MeanMinMax)
{
    Cdf cdf;
    cdf.add_all({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(cdf.mean(), 2.0);
    EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
}

TEST(Cdf, EmptyQuantileThrows)
{
    Cdf cdf;
    EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
}

} // namespace
} // namespace anc
