#include "capacity/capacity.h"

#include <gtest/gtest.h>

#include "util/db.h"

namespace anc::cap {
namespace {

TEST(Capacity, TraditionalFormula)
{
    // alpha * (log2(1+2s) + log2(1+s)) at s = 10, alpha = 1/8.
    const double expected = 0.125 * (std::log2(21.0) + std::log2(11.0));
    EXPECT_NEAR(traditional_upper_bound(10.0), expected, 1e-12);
}

TEST(Capacity, AncFormula)
{
    // 4 alpha * log2(1 + s^2/(3s+1)) at s = 10.
    const double expected = 0.5 * std::log2(1.0 + 100.0 / 31.0);
    EXPECT_NEAR(anc_lower_bound(10.0), expected, 1e-12);
}

TEST(Capacity, ZeroSnrIsZeroCapacity)
{
    EXPECT_DOUBLE_EQ(traditional_upper_bound(0.0), 0.0);
    EXPECT_DOUBLE_EQ(anc_lower_bound(0.0), 0.0);
}

TEST(Capacity, NegativeSnrRejected)
{
    EXPECT_THROW(traditional_upper_bound(-1.0), std::invalid_argument);
    EXPECT_THROW(anc_lower_bound(-1.0), std::invalid_argument);
}

TEST(Capacity, GainApproachesTwoAsymptotically)
{
    // Theorem 8.1: the ratio tends to 2 as SNR grows (the convergence is
    // logarithmic, so it is slow in dB).
    const double g40 = capacity_gain(from_db(40.0));
    const double g80 = capacity_gain(from_db(80.0));
    const double g160 = capacity_gain(from_db(160.0));
    EXPECT_LT(g40, g80);
    EXPECT_LT(g80, g160);
    EXPECT_LT(g160, 2.0); // approaches from below
    EXPECT_GT(g160, 1.90);
    EXPECT_GT(capacity_gain(from_db(400.0)), 1.96);
}

TEST(Capacity, TraditionalWinsAtLowSnr)
{
    // Fig. 7's low-SNR region (0-8 dB): amplified relay noise makes ANC
    // worse than routing.
    for (const double snr_db : {0.0, 2.0, 4.0, 6.0}) {
        const double snr = from_db(snr_db);
        EXPECT_LT(anc_lower_bound(snr), traditional_upper_bound(snr)) << snr_db << " dB";
    }
}

TEST(Capacity, AncWinsAtOperatingSnr)
{
    // WLAN operating points (20-40 dB, §8): ANC clearly ahead, and the
    // margin widens with SNR.
    for (const double snr_db : {20.0, 25.0, 30.0, 40.0}) {
        const double snr = from_db(snr_db);
        EXPECT_GT(anc_lower_bound(snr), 1.35 * traditional_upper_bound(snr))
            << snr_db << " dB";
    }
    EXPECT_GT(anc_lower_bound(from_db(40.0)), 1.6 * traditional_upper_bound(from_db(40.0)));
}

TEST(Capacity, CrossoverNearEightDb)
{
    const double crossover = crossover_snr_db();
    EXPECT_GT(crossover, 5.0);
    EXPECT_LT(crossover, 11.0);
}

TEST(Capacity, Fig7AbsoluteScale)
{
    // Spot values read off Fig. 7 (b/s/Hz): traditional ~2.2 and ANC ~3.4
    // at 25 dB; traditional ~4.4 and ANC ~8.3 at 55 dB.
    EXPECT_NEAR(traditional_upper_bound(from_db(25.0)), 2.2, 0.25);
    EXPECT_NEAR(anc_lower_bound(from_db(25.0)), 3.4, 0.3);
    EXPECT_NEAR(traditional_upper_bound(from_db(55.0)), 4.5, 0.3);
    EXPECT_NEAR(anc_lower_bound(from_db(55.0)), 8.3, 0.4);
}

TEST(Capacity, SweepShape)
{
    const auto points = sweep(0.0, 55.0, 5.0);
    ASSERT_EQ(points.size(), 12u);
    EXPECT_DOUBLE_EQ(points.front().snr_db, 0.0);
    EXPECT_DOUBLE_EQ(points.back().snr_db, 55.0);
    // Both curves are monotone increasing in SNR.
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GT(points[i].traditional, points[i - 1].traditional);
        EXPECT_GT(points[i].anc, points[i - 1].anc);
    }
    // The gain column matches the ratio.
    for (const auto& p : points) {
        if (p.traditional > 0.0) {
            EXPECT_NEAR(p.gain, p.anc / p.traditional, 1e-12);
        }
    }
}

TEST(Capacity, SweepRejectsBadStep)
{
    EXPECT_THROW(sweep(0.0, 10.0, 0.0), std::invalid_argument);
}

} // namespace
} // namespace anc::cap
