// Golden-equivalence tests for the allocation-free kernels: every
// in-place / into-buffer kernel must be *bit-identical* to its
// value-returning counterpart (and to the historical scalar arithmetic)
// on random signals.  Comparisons use exact ==, not tolerances — the
// engine's determinism contract (ENGINE.md) leans on this.

#include "dsp/msk.h"
#include "dsp/ops.h"

#include <cmath>
#include <gtest/gtest.h>
#include <limits>

#include "channel/medium.h"
#include "core/relay.h"
#include "dsp/energy_scan.h"
#include "net/topology.h"
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

TEST(OpsInPlace, ScaleMatchesScaled)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Signal signal = make_test_signal(257, seed);
        const Signal expected = scaled(signal, 1.7354);
        Signal in_place{signal};
        scale_in_place(in_place, 1.7354);
        expect_identical(expected, in_place);
        // And against the historical per-sample arithmetic.
        for (std::size_t i = 0; i < signal.size(); ++i)
            EXPECT_EQ(in_place[i], signal[i] * 1.7354);
    }
}

TEST(OpsInPlace, RotateMatchesRotated)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Signal signal = make_test_signal(193, seed);
        const double phase = 0.31 * static_cast<double>(seed);
        const Signal expected = rotated(signal, phase);
        Signal in_place{signal};
        rotate_in_place(in_place, phase);
        expect_identical(expected, in_place);
        const Sample rotor = std::polar(1.0, phase);
        for (std::size_t i = 0; i < signal.size(); ++i)
            EXPECT_EQ(in_place[i], signal[i] * rotor);
    }
}

TEST(OpsInPlace, ConjugateMatchesConjugated)
{
    const Signal signal = make_test_signal(100, 7);
    const Signal expected = conjugated(signal);
    Signal in_place{signal};
    conjugate_in_place(in_place);
    expect_identical(expected, in_place);
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_EQ(in_place[i], std::conj(signal[i]));
}

TEST(OpsInPlace, TimeReverseMatchesTimeReversed)
{
    const Signal signal = make_test_signal(131, 8);
    const Signal expected = time_reversed(signal);
    Signal out;
    time_reverse_into(signal, out);
    expect_identical(expected, out);
}

TEST(OpsInPlace, SliceIntoMatchesSlice)
{
    const Signal signal = make_test_signal(64, 9);
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{3, 40}, {0, 64}, {60, 200}, {10, 5}}) {
        const Signal expected = slice(signal, begin, end);
        Signal out;
        slice_into(signal, begin, end, out);
        expect_identical(expected, out);
        const Signal_view view = slice_view(signal, begin, end);
        ASSERT_EQ(view.size(), expected.size());
        for (std::size_t i = 0; i < view.size(); ++i)
            EXPECT_EQ(view[i], expected[i]);
    }
}

TEST(OpsInPlace, AddIntoMatchesAdded)
{
    const Signal a = make_test_signal(90, 10);
    const Signal b = make_test_signal(60, 11);
    const Signal expected = added(a, b);
    // Historical arithmetic: zero-extended sum.
    Signal reference(std::max(a.size(), b.size()), Sample{0.0, 0.0});
    for (std::size_t i = 0; i < a.size(); ++i)
        reference[i] += a[i];
    for (std::size_t i = 0; i < b.size(); ++i)
        reference[i] += b[i];
    expect_identical(reference, expected);

    Signal acc;
    add_into(acc, a);
    add_into(acc, b);
    expect_identical(reference, acc);
}

TEST(OpsInPlace, NormalizeInPlaceMatchesNormalizedToPower)
{
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        const Signal signal = make_test_signal(333, seed);
        const Signal expected = normalized_to_power(signal, 2.0);
        Signal in_place{signal};
        const double measured = normalize_power_in_place(in_place, 2.0);
        expect_identical(expected, in_place);
        EXPECT_EQ(measured, power(signal));
        // Historical arithmetic: power then scaled.
        const Signal reference = scaled(signal, std::sqrt(2.0 / power(signal)));
        expect_identical(reference, in_place);
    }
}

TEST(OpsInPlace, NormalizeZeroSignalUntouched)
{
    Signal zeros(9, Sample{0.0, 0.0});
    EXPECT_EQ(normalize_power_in_place(zeros, 3.0), 0.0);
    for (const Sample& s : zeros)
        EXPECT_EQ(s, (Sample{0.0, 0.0}));
}

TEST(OpsInPlace, ModulateIntoMatchesModulate)
{
    Pcg32 rng{31};
    const Bits bits = random_bits(500, rng);
    // Initial phases beyond (-pi, pi] exercise the first-step wrap.
    for (const double phase : {0.0, 1.2, 3.9, 6.28, -2.5}) {
        const Msk_modulator modulator{0.8, phase};
        const Signal expected = modulator.modulate(bits);
        Signal out;
        modulator.modulate_into(bits, out);
        expect_identical(expected, out);
    }
}

TEST(OpsInPlace, DemodulateIntoMatchesDemodulateAndArgRule)
{
    const Msk_demodulator demodulator;
    for (std::uint64_t seed = 41; seed <= 45; ++seed) {
        // Random complex samples — far harsher than clean MSK, and the
        // exact domain where the sign-structure rule must still agree
        // with the historical arg-based rule.
        const Signal signal = make_test_signal(777, seed);
        const Bits bits = demodulator.demodulate(signal);
        Bits into;
        demodulator.demodulate_into(signal, into);
        ASSERT_EQ(bits, into);
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
    const Bits bits = demodulator.demodulate(signal);
    Bits into;
    demodulator.demodulate_into(signal, into);
    ASSERT_EQ(bits, into);
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
    const std::vector<double> expected = phase_differences_for_bits(bits);
    std::vector<double> out;
    phase_differences_for_bits_into(bits, out);
    EXPECT_EQ(expected, out);
}

TEST(OpsInPlace, SampleEnergiesIntoMatchesAndNormRule)
{
    const Signal signal = make_test_signal(222, 61);
    const std::vector<double> expected = sample_energies(signal);
    std::vector<double> out;
    sample_energies_into(signal, out);
    ASSERT_EQ(expected, out);
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_EQ(out[i], std::norm(signal[i]));
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

TEST(OpsInPlace, MediumReceiveIntoMatchesReceive)
{
    // Two identically seeded media must produce bit-identical streams
    // through the value and the into-buffer paths.
    const auto build = [] {
        chan::Medium medium{0.05, Pcg32{77, 3}};
        net::Alice_bob_nodes nodes;
        net::Alice_bob_gains gains;
        Pcg32 link_rng{78, 4};
        install_alice_bob(medium, nodes, gains, link_rng);
        return medium;
    };
    chan::Medium value_medium = build();
    chan::Medium into_medium = build();

    const Signal signal_a = make_test_signal(300, 63);
    const Signal signal_b = make_test_signal(280, 64);
    net::Alice_bob_nodes nodes;
    const chan::Transmission txs[] = {{nodes.alice, signal_a, 17},
                                      {nodes.bob, signal_b, 40}};
    const Signal expected = value_medium.receive(nodes.router, txs, 64);
    Signal out;
    into_medium.receive_into(nodes.router, txs, 64, out);
    expect_identical(expected, out);
}

TEST(OpsInPlace, AmplifyAndForwardIntoMatches)
{
    // A burst with enough power to trip the detector, noise around it.
    Pcg32 rng{91};
    Signal received(600, Sample{0.0, 0.0});
    for (auto& s : received)
        s = {0.01 * rng.next_gaussian(), 0.01 * rng.next_gaussian()};
    const Signal burst = make_test_signal(400, 92);
    for (std::size_t i = 0; i < burst.size(); ++i)
        received[100 + i] += burst[i];

    const auto expected = amplify_and_forward(received, 1e-4, 1.0);
    ASSERT_TRUE(expected.has_value());
    Signal out;
    ASSERT_TRUE(amplify_and_forward_into(received, 1e-4, 1.0, out));
    expect_identical(*expected, out);
}

TEST(OpsInPlace, DelayedReservesWithoutChangingValues)
{
    const Signal signal = make_test_signal(40, 95);
    const Signal out = delayed(signal, 13);
    ASSERT_EQ(out.size(), 53u);
    for (std::size_t i = 0; i < 13; ++i)
        EXPECT_EQ(out[i], (Sample{0.0, 0.0}));
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_EQ(out[13 + i], signal[i]);
}

} // namespace
} // namespace anc::dsp
