#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace anc {
namespace {

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
