#include "dsp/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/energy_scan.h"
#include "util/rng.h"

#include "support/signal_ops.h"

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
    Signal out{{1.0, 2.0}, {-3.0, 0.5}};
    scale_in_place(out, 2.0);
    EXPECT_DOUBLE_EQ(out[0].real(), 2.0);
    EXPECT_DOUBLE_EQ(out[0].imag(), 4.0);
    EXPECT_DOUBLE_EQ(out[1].real(), -6.0);
    // Bit for bit the per-sample complex-by-real product.
    const Signal signal = make_test_signal(257, 5);
    Signal scaled{signal};
    scale_in_place(scaled, 1.7354);
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_EQ(scaled[i], signal[i] * 1.7354);
}

TEST(Ops, AccumulateGrowsAndAdds)
{
    Signal acc;
    const Signal a{{1.0, 0.0}, {1.0, 0.0}};
    test::accumulate(acc, a, 2);
    ASSERT_EQ(acc.size(), 4u);
    EXPECT_EQ(acc[0], (Sample{0.0, 0.0}));
    EXPECT_EQ(acc[2], (Sample{1.0, 0.0}));
    test::accumulate(acc, a, 3);
    EXPECT_EQ(acc[3], (Sample{2.0, 0.0}));
    ASSERT_EQ(acc.size(), 5u);
}

TEST(Ops, TimeReversedIsInvolution)
{
    const Signal pair{{1.0, 2.0}, {3.0, -1.0}};
    Signal tr;
    time_reverse_into(pair, tr);
    EXPECT_EQ(tr, (Signal{{3.0, 1.0}, {1.0, -2.0}})); // reversed and conjugated
    const Signal signal = make_test_signal(33, 2);
    Signal once;
    time_reverse_into(signal, once);
    Signal twice = make_test_signal(50, 6); // stale lease contents
    time_reverse_into(once, twice);
    EXPECT_EQ(twice, signal);
}

TEST(Ops, SliceClampsBounds)
{
    const Signal signal = make_test_signal(10, 3);
    Signal out;
    slice_into(signal, 2, 5, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], signal[2]);
    slice_into(signal, 8, 100, out);
    EXPECT_EQ(out.size(), 2u);
    slice_into(signal, 100, 200, out);
    EXPECT_EQ(out.size(), 0u);
    slice_into(signal, 5, 2, out);
    EXPECT_EQ(out.size(), 0u);
    EXPECT_EQ(slice_view(signal, 8, 100).size(), 2u);
    EXPECT_EQ(slice_view(signal, 5, 2).size(), 0u);
}

TEST(Ops, NormalizedToPower)
{
    const Signal original = make_test_signal(1000, 4);
    Signal signal = original;
    const double before = mean_energy(original);
    EXPECT_EQ(normalize_power_in_place(signal, 2.5), before);
    EXPECT_NEAR(mean_energy(signal), 2.5, 1e-9);
    // Exactly the measure-then-scale arithmetic, bit for bit.
    Signal scaled = original;
    scale_in_place(scaled, std::sqrt(2.5 / before));
    EXPECT_EQ(signal, scaled);
}

} // namespace
} // namespace anc::dsp
