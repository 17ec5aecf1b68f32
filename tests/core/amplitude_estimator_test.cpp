#include "core/amplitude_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>

#include "channel/awgn.h"
#include "dsp/energy_scan.h"
#include "channel/link.h"
#include "dsp/msk.h"
#include "util/bits.h"
#include "util/rng.h"

namespace anc {
namespace {

/// Interfered MSK mix with amplitudes a and b over `bits_count` symbols.
/// `drift` is the relative carrier-frequency offset (radians/symbol)
/// between the two transmitters; real radio pairs always have one, and
/// the paper's Eq. 5-6 estimator implicitly relies on it (it makes
/// cos(theta - phi) sweep the circle instead of sitting on the MSK
/// phase lattice).
dsp::Signal make_mix(double a, double b, std::size_t bits_count, std::uint64_t seed,
                     double noise_power = 0.0, double drift = 0.004)
{
    Pcg32 rng{seed};
    const Bits bits_a = random_bits(bits_count, rng);
    const Bits bits_b = random_bits(bits_count, rng);
    const dsp::Msk_modulator mod_a{a, rng.next_double() * 6.28};
    const dsp::Msk_modulator mod_b{b, rng.next_double() * 6.28};
    chan::Link_params drifting;
    drifting.phase_drift = drift;
    dsp::Signal mix;
    mod_a.modulate_into(bits_a, mix);
    dsp::Signal signal_b;
    mod_b.modulate_into(bits_b, signal_b);
    chan::Link_channel{drifting}.apply_onto(signal_b, 0, mix);
    if (noise_power > 0.0) {
        chan::Awgn noise{noise_power, rng.fork(99)};
        noise.add_in_place(mix);
    }
    return mix;
}

/// A 256-sample mix with one NaN or Inf sample at `case_index`'s place
/// (12 cases: four bad values at the start, middle and end).  One such
/// sample poisons mu and sigma, and a NaN slips past every `<= 0` check.
dsp::Signal poisoned_mix(std::size_t case_index)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const dsp::Sample bad[] = {{nan, 0.0}, {0.3, nan}, {inf, 0.0}, {0.0, -inf}};
    const std::size_t at[] = {0, 100, 255};
    dsp::Signal mix = make_mix(1.0, 0.5, 255, 535, 0.01);
    mix[at[case_index % 3]] = bad[case_index / 3];
    return mix;
}

constexpr std::size_t poisoned_cases = 12;

TEST(AmplitudeEstimator, RecoversDistinctAmplitudesNoiselessly)
{
    const dsp::Signal mix = make_mix(1.0, 0.5, 4000, 511);
    const auto estimate = estimate_amplitudes(mix, 0.0);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_NEAR(estimate->a, 1.0, 0.06);
    EXPECT_NEAR(estimate->b, 0.5, 0.06);
}

TEST(AmplitudeEstimator, MuIsSumOfSquares)
{
    const dsp::Signal mix = make_mix(1.0, 0.7, 6000, 512);
    const auto estimate = estimate_amplitudes(mix, 0.0);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_NEAR(estimate->mu, 1.0 + 0.49, 0.05);
}

TEST(AmplitudeEstimator, SigmaMatchesEq6)
{
    // sigma = A^2 + B^2 + 4AB/pi (Eq. 6).
    const double a = 1.0;
    const double b = 0.6;
    const dsp::Signal mix = make_mix(a, b, 8000, 513);
    const auto estimate = estimate_amplitudes(mix, 0.0);
    ASSERT_TRUE(estimate.has_value());
    const double expected_sigma = a * a + b * b + 4.0 * a * b / std::numbers::pi;
    EXPECT_NEAR(estimate->sigma, expected_sigma, 0.08);
}

TEST(AmplitudeEstimator, EqualAmplitudes)
{
    const dsp::Signal mix = make_mix(0.8, 0.8, 6000, 514);
    const auto estimate = estimate_amplitudes(mix, 0.0);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_NEAR(estimate->a, 0.8, 0.1);
    EXPECT_NEAR(estimate->b, 0.8, 0.1);
}

TEST(AmplitudeEstimator, NoiseCompensation)
{
    const double noise_power = 0.01; // 20 dB below the stronger signal
    const dsp::Signal mix = make_mix(1.0, 0.5, 8000, 515, noise_power);
    const auto estimate = estimate_amplitudes(mix, noise_power);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_NEAR(estimate->a, 1.0, 0.08);
    EXPECT_NEAR(estimate->b, 0.5, 0.08);
}

TEST(AmplitudeEstimator, OrdersAmplitudes)
{
    // Returned with a >= b regardless of which signal is stronger.
    const dsp::Signal mix = make_mix(0.4, 1.2, 4000, 516);
    const auto estimate = estimate_amplitudes(mix, 0.0);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_GE(estimate->a, estimate->b);
    EXPECT_NEAR(estimate->a, 1.2, 0.1);
    EXPECT_NEAR(estimate->b, 0.4, 0.1);
}

TEST(AmplitudeEstimator, ShortWindowRejected)
{
    const dsp::Signal mix = make_mix(1.0, 0.5, 16, 517);
    EXPECT_FALSE(estimate_amplitudes(mix, 0.0, 32).has_value());
    // A full window with a non-finite sample is rejected too, never
    // passed on as a NaN or Inf amplitude.
    for (std::size_t c = 0; c < poisoned_cases; ++c)
        EXPECT_FALSE(estimate_amplitudes(poisoned_mix(c), 0.01).has_value()) << c;
}

TEST(AmplitudeEstimator, WithKnownAmplitude)
{
    const dsp::Signal mix = make_mix(1.0, 0.5, 3000, 518, 0.01);
    const auto estimate = estimate_with_known_amplitude(mix, 0.01, 1.0);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_DOUBLE_EQ(estimate->a, 1.0);
    EXPECT_NEAR(estimate->b, 0.5, 0.05);
}

TEST(AmplitudeEstimator, KnownAmplitudeTooLargeFails)
{
    // If the claimed known amplitude exceeds the total power there is no
    // valid unknown amplitude.
    const dsp::Signal mix = make_mix(1.0, 0.5, 3000, 519);
    EXPECT_FALSE(estimate_with_known_amplitude(mix, 0.0, 2.0).has_value());
    // Nor is there one when the window or the claim is not finite.
    for (std::size_t c = 0; c < poisoned_cases; ++c)
        EXPECT_FALSE(estimate_with_known_amplitude(poisoned_mix(c), 0.01, 1.0).has_value())
            << c;
    for (const double claim : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()})
        EXPECT_FALSE(estimate_with_known_amplitude(mix, 0.0, claim).has_value());
}

TEST(AmplitudeEstimator, CleanRegionAmplitude)
{
    Pcg32 rng{520};
    const Bits bits = random_bits(2000, rng);
    const dsp::Msk_modulator modulator{0.7, 0.0};
    dsp::Signal signal;
    modulator.modulate_into(bits, signal);
    chan::Awgn noise{0.005, Pcg32{521}};
    noise.add_in_place(signal);
    EXPECT_NEAR(amplitude_from_clean_region(signal, 0.005), 0.7, 0.02);
}

TEST(AmplitudeEstimator, CleanRegionBelowNoiseFloorIsZero)
{
    dsp::Signal nothing(100, dsp::Sample{0.0, 0.0});
    EXPECT_DOUBLE_EQ(amplitude_from_clean_region(nothing, 0.01), 0.0);
}

TEST(AmplitudeEstimator, VarianceEstimatorRecoversAmplitudes)
{
    const dsp::Signal mix = make_mix(1.0, 0.5, 6000, 531);
    const auto estimate = estimate_amplitudes_by_variance(mix, 0.0);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_NEAR(estimate->a, 1.0, 0.06);
    EXPECT_NEAR(estimate->b, 0.5, 0.06);
}

TEST(AmplitudeEstimator, WithoutDriftBlindEstimationDegenerates)
{
    // With zero relative CFO, MSK keeps the two phases a *fixed* offset
    // delta apart (steps are +-pi/2, so theta - phi only flips by pi):
    // |y|^2 observes 2AB·(+-cos delta) and the product AB is fundamentally
    // confounded with the unobservable cos delta.  No blind estimator can
    // recover A and B — the total power mu is the only trustworthy
    // statistic.  (Real radio pairs always drift, which is exactly what
    // the paper's Eq. 5-6 rely on.)
    const dsp::Signal mix = make_mix(1.0, 0.5, 6000, 532, 0.0, /*drift=*/0.0);
    const auto estimate = estimate_amplitudes_by_variance(mix, 0.0);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_NEAR(estimate->mu, 1.25, 0.05); // mu = A^2 + B^2 still holds
    EXPECT_GE(estimate->a, estimate->b);   // and the split stays ordered
}

TEST(AmplitudeEstimator, VarianceEstimatorNoiseCompensation)
{
    const double noise_power = 0.01;
    const dsp::Signal mix = make_mix(1.0, 0.6, 8000, 533, noise_power);
    const auto estimate = estimate_amplitudes_by_variance(mix, noise_power);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_NEAR(estimate->a, 1.0, 0.08);
    EXPECT_NEAR(estimate->b, 0.6, 0.08);
}

TEST(AmplitudeEstimator, VarianceEstimatorShortWindowRejected)
{
    const dsp::Signal mix = make_mix(1.0, 0.5, 16, 534);
    EXPECT_FALSE(estimate_amplitudes_by_variance(mix, 0.0, 32).has_value());
    for (std::size_t c = 0; c < poisoned_cases; ++c)
        EXPECT_FALSE(estimate_amplitudes_by_variance(poisoned_mix(c), 0.01).has_value())
            << c;
}

TEST(AmplitudeEstimator, SirSweepStaysAccurate)
{
    // Across the SIR range of Fig. 13 (-3..+4 dB) both amplitudes must be
    // recovered within ~10%.
    for (const double b : {0.70, 0.8, 0.9, 1.0, 1.12, 1.25, 1.4, 1.58}) {
        const dsp::Signal mix = make_mix(1.0, b, 8000, 522 + static_cast<std::uint64_t>(b * 100));
        const auto estimate = estimate_amplitudes(mix, 0.0);
        ASSERT_TRUE(estimate.has_value()) << "b=" << b;
        const double hi = std::max(1.0, b);
        const double lo = std::min(1.0, b);
        EXPECT_NEAR(estimate->a, hi, 0.12) << "b=" << b;
        EXPECT_NEAR(estimate->b, lo, 0.12) << "b=" << b;
    }
}

TEST(AmplitudeEstimator, BranchlessAccumulationIsByteIdentical)
{
    // The §6.2 window statistics were rewritten with a branchless
    // above-mean accumulation (the old data-driven branch mispredicted
    // every other sample).  Adding a masked +0.0 to a non-negative
    // partial sum is the IEEE identity, so the estimates must equal the
    // historical branchy transcription below bit for bit.
    const auto reference_estimate =
        [](dsp::Signal_view overlap,
           double noise) -> std::optional<Amplitude_estimate> {
        std::vector<double> e;
        dsp::sample_energies_into(overlap, e);
        double sum = 0.0;
        for (const double v : e)
            sum += v;
        const double mu_raw = sum / static_cast<double>(e.size());
        double above = 0.0;
        for (const double v : e) {
            if (v > mu_raw)
                above += v;
        }
        const double sigma_raw = 2.0 * above / static_cast<double>(e.size());
        const double mu = mu_raw - noise;
        const double sigma = sigma_raw - noise;
        if (mu <= 0.0)
            return std::nullopt;
        const double product = std::max(std::numbers::pi * (sigma - mu) / 4.0, 0.0);
        double discriminant = mu * mu - 4.0 * product * product;
        if (discriminant < 0.0)
            discriminant = 0.0;
        const double root = std::sqrt(discriminant);
        const double a2 = (mu + root) / 2.0;
        const double b2 = (mu - root) / 2.0;
        if (b2 < 0.0)
            return std::nullopt;
        Amplitude_estimate estimate;
        estimate.a = std::sqrt(a2);
        estimate.b = std::sqrt(b2);
        estimate.mu = mu;
        estimate.sigma = sigma;
        if (estimate.a <= 0.0 || estimate.b <= 0.0)
            return std::nullopt;
        return estimate;
    };

    for (const std::uint64_t seed : {601ull, 602ull, 603ull, 604ull}) {
        const double noise = seed % 2 ? 0.01 : 0.0;
        const dsp::Signal mix = make_mix(1.0, 0.85, 3000, seed, noise);
        const auto actual = estimate_amplitudes(mix, noise);
        const auto expected = reference_estimate(mix, noise);
        ASSERT_EQ(actual.has_value(), expected.has_value()) << "seed " << seed;
        if (actual) {
            // Exact ==: the serial sum chain's value must be unchanged.
            EXPECT_EQ(actual->a, expected->a) << "seed " << seed;
            EXPECT_EQ(actual->b, expected->b) << "seed " << seed;
            EXPECT_EQ(actual->mu, expected->mu) << "seed " << seed;
            EXPECT_EQ(actual->sigma, expected->sigma) << "seed " << seed;
        }
    }
}

} // namespace
} // namespace anc
