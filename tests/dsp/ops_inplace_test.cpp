// Golden-equivalence tests for the allocation-free kernels: every
// in-place / into-buffer kernel must be *bit-identical* to the historical
// scalar arithmetic on random signals, and must not depend on what a
// leased output buffer held before.  Comparisons use exact ==, not
// tolerances — the engine's determinism contract (ENGINE.md) leans on
// this.

#include "dsp/msk.h"
#include "dsp/ops.h"

#include <cmath>
#include <gtest/gtest.h>
#include <limits>

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

void expect_identical(const Signal& a, const Signal& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Exact comparison: the kernels must not change a single bit.
        EXPECT_EQ(a[i].real(), b[i].real()) << "sample " << i;
        EXPECT_EQ(a[i].imag(), b[i].imag()) << "sample " << i;
    }
}

TEST(OpsInPlace, SliceIntoMatchesSlice)
{
    const Signal signal = make_test_signal(64, 9);
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{3, 40}, {0, 64}, {60, 200}, {10, 5}}) {
        const Signal_view view = slice_view(signal, begin, end);
        Signal out = make_test_signal(70, 10); // stale lease contents
        slice_into(signal, begin, end, out);
        expect_identical(Signal{view.begin(), view.end()}, out);
    }
}

TEST(OpsInPlace, NormalizeZeroSignalUntouched)
{
    Signal zeros(9, Sample{0.0, 0.0});
    EXPECT_EQ(normalize_power_in_place(zeros, 3.0), 0.0);
    for (const Sample& s : zeros)
        EXPECT_EQ(s, (Sample{0.0, 0.0}));
}

TEST(OpsInPlace, DemodulateIntoMatchesArgRule)
{
    const Msk_demodulator demodulator;
    Bits bits;
    for (std::uint64_t seed = 41; seed <= 45; ++seed) {
        // Random complex samples — far harsher than clean MSK, and the
        // exact domain where the sign-structure rule must still agree
        // with the historical arg-based rule.
        const Signal signal = make_test_signal(777, seed);
        demodulator.demodulate_into(signal, bits);
        ASSERT_EQ(bits.size(), signal.size() - 1);
        for (std::size_t n = 0; n + 1 < signal.size(); ++n) {
            const Sample ratio = signal[n + 1] * std::conj(signal[n]);
            EXPECT_EQ(bits[n], std::arg(ratio) >= 0.0 ? 1 : 0) << "transition " << n;
        }
    }
}

TEST(OpsInPlace, DemodulateZeroImaginaryEdgeCases)
{
    // Transitions engineered to hit im == +-0.0 in the ratio.
    const Msk_demodulator demodulator;
    const Signal signal{{1.0, 0.0}, {2.0, 0.0}, {-1.0, 0.0}, {3.0, 0.0}};
    Bits bits;
    demodulator.demodulate_into(signal, bits);
    ASSERT_EQ(bits.size(), signal.size() - 1);
    for (std::size_t n = 0; n + 1 < signal.size(); ++n) {
        const Sample ratio = signal[n + 1] * std::conj(signal[n]);
        EXPECT_EQ(bits[n], std::arg(ratio) >= 0.0 ? 1 : 0);
    }
}

/// The historical demodulation loop, transcribed: the sign rule on the
/// products std::complex multiplication performs, one transition at a
/// time.
Bits reference_demodulate(const Signal& signal)
{
    Bits bits;
    for (std::size_t n = 0; n + 1 < signal.size(); ++n) {
        const double ar = signal[n].real();
        const double ai = signal[n].imag();
        const double br = signal[n + 1].real();
        const double bi = signal[n + 1].imag();
        const double im = br * -ai + bi * ar;
        bool one = im > 0.0;
        if (im == 0.0)
            one = !std::signbit(im) || !std::signbit(br * ar - bi * -ai);
        bits.push_back(one ? 1 : 0);
    }
    return bits;
}

TEST(OpsInPlace, DemodulateHostileInputsMatchHistoricalLoop)
{
    // Lengths whose transition counts leave every tail behind the 4- and
    // 8-wide lane blocks (the 777-sample signals above divide evenly),
    // samples drawn from a pool heavy in ±0, ±Inf, NaN and denormals so
    // the ratio's parts hit every sign case, and gains 1e±150 that push
    // the products to overflow or to signed zeros.
    const double inf = std::numeric_limits<double>::infinity();
    const double pool[] = {0.0,  -0.0, 1.0,  -1.0, 2.5,  -3.0, inf, -inf,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(), -4.9e-310};
    constexpr std::size_t pool_size = sizeof pool / sizeof pool[0];
    Pcg32 rng{4242, 7};
    const Msk_demodulator demodulator;
    Bits out;
    for (std::size_t length = 0; length <= 40; ++length) {
        for (const double gain : {1.0, 1e150, 1e-150}) {
            for (int trial = 0; trial < 8; ++trial) {
                Signal signal;
                for (std::size_t i = 0; i < length; ++i) {
                    const auto pick = [&] {
                        return trial % 2 == 0
                                   ? pool[rng.next_in_range(0, pool_size - 1)]
                                   : rng.next_gaussian();
                    };
                    const double re = pick();
                    signal.push_back(Sample{re, pick()} * gain);
                }
                demodulator.demodulate_into(signal, out);
                ASSERT_EQ(out, reference_demodulate(signal))
                    << length << " samples, gain " << gain << ", trial " << trial;
            }
        }
    }
    for (const std::size_t length : {778, 779, 781, 785, 2306}) {
        const Signal signal = make_test_signal(length, length);
        demodulator.demodulate_into(signal, out);
        EXPECT_EQ(out, reference_demodulate(signal)) << length << " samples";
    }
}

TEST(OpsInPlace, PhaseDifferencesIntoMatches)
{
    Pcg32 rng{51};
    const Bits bits = random_bits(64, rng);
    std::vector<double> out(100, 5.0); // stale lease contents
    phase_differences_for_bits_into(bits, out);
    ASSERT_EQ(out.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        EXPECT_EQ(out[i], msk_phase_step(bits[i]));
}

TEST(OpsInPlace, SampleEnergiesIntoMatchesAndNormRule)
{
    const Signal signal = make_test_signal(222, 61);
    std::vector<double> out;
    sample_energies_into(signal, out);
    ASSERT_EQ(out.size(), signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_EQ(out[i], std::norm(signal[i]));
    std::vector<double> dirty(500, -1.0);
    sample_energies_into(signal, dirty);
    EXPECT_EQ(out, dirty);
}

TEST(OpsInPlace, WindowEnergySumsIntoOverwritesDirtyBuffers)
{
    // Leased buffers arrive with stale contents and capacity; the sums
    // must not depend on them.
    const Signal signal = make_test_signal(400, 62);
    std::vector<double> sums;
    std::vector<double> sum_sqs;
    window_energy_sums_into(signal, 32, sums, &sum_sqs);
    std::vector<double> dirty_sums(1000, -7.0);
    std::vector<double> dirty_sum_sqs(3, 9.0);
    window_energy_sums_into(signal, 32, dirty_sums, &dirty_sum_sqs);
    EXPECT_EQ(sums, dirty_sums);
    EXPECT_EQ(sum_sqs, dirty_sum_sqs);
    ASSERT_EQ(sums.size(), signal.size() - 32 + 1);
}

} // namespace
} // namespace anc::dsp
