#include "dsp/energy_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/bits.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

TEST(EnergyScan, SampleEnergies)
{
    const Signal signal{{3.0, 4.0}, {0.0, 2.0}};
    std::vector<double> energies;
    sample_energies_into(signal, energies);
    ASSERT_EQ(energies.size(), 2u);
    EXPECT_DOUBLE_EQ(energies[0], 25.0);
    EXPECT_DOUBLE_EQ(energies[1], 4.0);
}

TEST(EnergyScan, MeanEnergy)
{
    const Signal signal{{1.0, 0.0}, {0.0, 3.0}};
    EXPECT_DOUBLE_EQ(mean_energy(signal), 5.0);
    EXPECT_DOUBLE_EQ(mean_energy(Signal{}), 0.0);
}

/// Mean and population variance of |y|^2 per window, from the sums.
struct Window_stats {
    std::vector<double> mean;
    std::vector<double> variance;
};

Window_stats window_stats(Signal_view signal, std::size_t window)
{
    std::vector<double> sums;
    std::vector<double> sum_sqs;
    window_energy_sums_into(signal, window, sums, &sum_sqs);
    Window_stats stats;
    const auto w = static_cast<double>(window);
    for (std::size_t n = 0; n < sums.size(); ++n) {
        const double mean = sums[n] / w;
        stats.mean.push_back(mean);
        stats.variance.push_back(sum_sqs[n] / w - mean * mean);
    }
    return stats;
}

TEST(EnergyScan, ConstantEnvelopeHasZeroVariance)
{
    Pcg32 rng{121};
    const Bits bits = random_bits(200, rng);
    const Msk_modulator modulator{2.0, 0.1};
    Signal signal;
    modulator.modulate_into(bits, signal);
    const Window_stats stats = window_stats(signal, 32);
    ASSERT_FALSE(stats.mean.empty());
    for (std::size_t i = 0; i < stats.mean.size(); ++i) {
        EXPECT_NEAR(stats.mean[i], 4.0, 1e-9);
        EXPECT_NEAR(stats.variance[i], 0.0, 1e-9);
    }
}

TEST(EnergyScan, InterferedSignalHasLargeVariance)
{
    // Two equal-amplitude MSK signals: |y|^2 swings between 0 and (2A)^2;
    // the windowed variance must be far from zero (the §7.1 detector
    // insight).
    Pcg32 rng{122};
    const Bits bits_a = random_bits(300, rng);
    const Bits bits_b = random_bits(300, rng);
    const Msk_modulator modulator{1.0, 0.0};
    Signal mix;
    modulator.modulate_into(bits_a, mix);
    Signal signal_b;
    modulator.modulate_into(bits_b, signal_b);
    const Sample rotor = std::polar(1.0, 1.1);
    for (Sample& s : signal_b)
        s *= rotor;
    accumulate(mix, signal_b, 0);
    const Window_stats stats = window_stats(mix, 64);
    double max_variance = 0.0;
    for (const double v : stats.variance)
        max_variance = std::max(max_variance, v);
    // Theoretical variance of |y|^2 for A=B=1 is E[(2cos d)^2]^2-ish ~ 2.
    EXPECT_GT(max_variance, 0.5);
}

TEST(EnergyScan, WindowCountAndOrder)
{
    // |y[n]|^2 = n, so window n sums n + (n+1) + (n+2) + (n+3).
    Signal signal;
    for (int n = 0; n < 10; ++n)
        signal.push_back(Sample{std::sqrt(static_cast<double>(n)), 0.0});
    std::vector<double> sums;
    std::vector<double> sum_sqs;
    window_energy_sums_into(signal, 4, sums, &sum_sqs);
    ASSERT_EQ(sums.size(), 7u);
    EXPECT_EQ(sum_sqs.size(), 7u);
    for (std::size_t n = 0; n < sums.size(); ++n)
        EXPECT_NEAR(sums[n], 4.0 * static_cast<double>(n) + 6.0, 1e-12) << n;
}

TEST(EnergyScan, ShortSignalYieldsEmptyScan)
{
    Signal signal(3, Sample{1.0, 0.0});
    std::vector<double> sums{1.0};
    std::vector<double> sum_sqs{1.0};
    window_energy_sums_into(signal, 8, sums, &sum_sqs);
    EXPECT_TRUE(sums.empty());
    EXPECT_TRUE(sum_sqs.empty());
}

TEST(EnergyScan, ZeroWindowThrows)
{
    std::vector<double> sums;
    EXPECT_THROW(window_energy_sums_into(Signal{}, 0, sums), std::invalid_argument);
}

TEST(EnergyScan, DetectsEnergyStep)
{
    // Silence then a strong signal: window means must rise at the step.
    Signal signal(64, Sample{0.0, 0.0});
    for (int i = 0; i < 64; ++i)
        signal.push_back(Sample{2.0, 0.0});
    const Window_stats stats = window_stats(signal, 16);
    EXPECT_NEAR(stats.mean.front(), 0.0, 1e-12);
    EXPECT_NEAR(stats.mean.back(), 4.0, 1e-12);
}

/// Reference transcription of the historical fused scan loop (the exact
/// FP operation sequence every profile's results were captured under),
/// recording the running sums it divided per window.  The production
/// chain forms |y|^2 inline and hands the sums to the detectors' lane
/// finalize; this pins its chains to the original byte for byte.
struct Reference_sums {
    std::vector<double> sums;
    std::vector<double> sum_sqs;
};

Reference_sums reference_sums(Signal_view signal, std::size_t window)
{
    Reference_sums out;
    if (signal.size() < window)
        return out;
    std::vector<double> e;
    sample_energies_into(signal, e);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
        sum += e[i];
        sum_sq += e[i] * e[i];
    }
    for (std::size_t start = 0;; ++start) {
        out.sums.push_back(sum);
        out.sum_sqs.push_back(sum_sq);
        if (start + window >= e.size())
            break;
        sum += e[start + window] - e[start];
        sum_sq += e[start + window] * e[start + window] - e[start] * e[start];
    }
    return out;
}

TEST(EnergyScan, RewrittenScanIsByteIdenticalToHistoricalLoop)
{
    Pcg32 rng{777, 13};
    for (const std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{16},
                                    std::size_t{64}, std::size_t{257},
                                    std::size_t{1024}}) {
        Signal signal;
        signal.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            signal.push_back(Sample{rng.next_gaussian(), rng.next_gaussian()});
        for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                         std::size_t{7}, std::size_t{16}, count}) {
            const Reference_sums expected = reference_sums(signal, window);
            std::vector<double> sums;
            std::vector<double> sum_sqs;
            window_energy_sums_into(signal, window, sums, &sum_sqs);
            // operator== on vector<double> is exact — any reassociation
            // or changed rounding in the chains fails here.
            EXPECT_EQ(sums, expected.sums) << count << " samples, window " << window;
            EXPECT_EQ(sum_sqs, expected.sum_sqs)
                << count << " samples, window " << window;
            // The mean-only chain (the packet detector's) is the same sum
            // chain without the squares.
            std::vector<double> sums_only;
            window_energy_sums_into(signal, window, sums_only);
            EXPECT_EQ(sums_only, expected.sums) << count << " samples, window " << window;
        }
    }
}

} // namespace
} // namespace anc::dsp
