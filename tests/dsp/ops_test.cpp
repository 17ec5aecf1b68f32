#include "dsp/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/energy_scan.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

Signal make_test_signal(std::size_t n, std::uint64_t seed)
{
    Pcg32 rng{seed};
    Signal signal;
    signal.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        signal.push_back({rng.next_gaussian(), rng.next_gaussian()});
    return signal;
}

TEST(Ops, ScaledMultipliesAmplitude)
{
    const Signal signal{{1.0, 2.0}, {-3.0, 0.5}};
    const Signal out = scaled(signal, 2.0);
    EXPECT_DOUBLE_EQ(out[0].real(), 2.0);
    EXPECT_DOUBLE_EQ(out[0].imag(), 4.0);
    EXPECT_DOUBLE_EQ(out[1].real(), -6.0);
}

TEST(Ops, RotatedPreservesMagnitude)
{
    const Signal signal = make_test_signal(50, 1);
    const Signal out = rotated(signal, 1.234);
    for (std::size_t i = 0; i < signal.size(); ++i) {
        EXPECT_NEAR(std::abs(out[i]), std::abs(signal[i]), 1e-12);
        EXPECT_NEAR(std::arg(out[i] * std::conj(signal[i])), 1.234, 1e-9);
    }
}

TEST(Ops, DelayedPrependsZeros)
{
    const Signal signal{{1.0, 0.0}};
    const Signal out = delayed(signal, 3);
    ASSERT_EQ(out.size(), 4u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(out[i], (Sample{0.0, 0.0}));
    EXPECT_EQ(out[3], (Sample{1.0, 0.0}));
}

TEST(Ops, AddedZeroExtends)
{
    const Signal a{{1.0, 0.0}, {2.0, 0.0}};
    const Signal b{{0.5, 0.5}};
    const Signal out = added(a, b);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (Sample{1.5, 0.5}));
    EXPECT_EQ(out[1], (Sample{2.0, 0.0}));
}

TEST(Ops, AccumulateGrowsAndAdds)
{
    Signal acc;
    const Signal a{{1.0, 0.0}, {1.0, 0.0}};
    accumulate(acc, a, 2);
    ASSERT_EQ(acc.size(), 4u);
    EXPECT_EQ(acc[0], (Sample{0.0, 0.0}));
    EXPECT_EQ(acc[2], (Sample{1.0, 0.0}));
    accumulate(acc, a, 3);
    EXPECT_EQ(acc[3], (Sample{2.0, 0.0}));
    ASSERT_EQ(acc.size(), 5u);
}

TEST(Ops, TimeReversedIsInvolution)
{
    const Signal pair{{1.0, 2.0}, {3.0, -1.0}};
    const Signal tr = time_reversed(pair);
    EXPECT_EQ(tr, (Signal{{3.0, 1.0}, {1.0, -2.0}})); // reversed and conjugated
    const Signal signal = make_test_signal(33, 2);
    const Signal twice = time_reversed(time_reversed(signal));
    ASSERT_EQ(twice.size(), signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i) {
        EXPECT_NEAR(twice[i].real(), signal[i].real(), 1e-12);
        EXPECT_NEAR(twice[i].imag(), signal[i].imag(), 1e-12);
    }
}

TEST(Ops, SliceClampsBounds)
{
    const Signal signal = make_test_signal(10, 3);
    EXPECT_EQ(slice(signal, 2, 5).size(), 3u);
    EXPECT_EQ(slice(signal, 8, 100).size(), 2u);
    EXPECT_EQ(slice(signal, 100, 200).size(), 0u);
    EXPECT_EQ(slice(signal, 5, 2).size(), 0u);
}

TEST(Ops, NormalizedToPower)
{
    const Signal original = make_test_signal(1000, 4);
    Signal signal = original;
    const double before = power(original);
    EXPECT_EQ(normalize_power_in_place(signal, 2.5), before);
    EXPECT_NEAR(power(signal), 2.5, 1e-9);
    // Exactly the measure-then-scale arithmetic, bit for bit.
    EXPECT_EQ(signal, scaled(original, std::sqrt(2.5 / before)));
}

} // namespace
} // namespace anc::dsp
