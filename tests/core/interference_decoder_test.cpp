#include "core/interference_decoder.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <numbers>

#include "channel/awgn.h"
#include "core/phase_solver.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/bits.h"
#include "util/phase.h"
#include "util/rng.h"

#include "support/signal_ops.h"

namespace anc {
namespace {

struct Collision {
    Bits known_bits;
    Bits unknown_bits;
    dsp::Signal mix;          // aligned at the known signal's first sample
    std::size_t unknown_start; // sample offset of the unknown signal
};

Collision make_collision(double a, double b, std::size_t bits_count,
                         std::size_t unknown_offset, std::uint64_t seed,
                         double noise_power = 0.0)
{
    Pcg32 rng{seed};
    Collision c;
    c.known_bits = random_bits(bits_count, rng);
    c.unknown_bits = random_bits(bits_count, rng);
    c.unknown_start = unknown_offset;
    const dsp::Msk_modulator mod_a{a, rng.next_double() * 6.28};
    const dsp::Msk_modulator mod_b{b, rng.next_double() * 6.28};
    mod_a.modulate_into(c.known_bits, c.mix);
    dsp::Signal unknown;
    mod_b.modulate_into(c.unknown_bits, unknown);
    test::accumulate(c.mix, unknown, unknown_offset);
    if (noise_power > 0.0) {
        chan::Awgn noise{noise_power, rng.fork(7)};
        noise.add_in_place(c.mix);
    }
    return c;
}

/// BER of the decoded unknown bits over the region where the unknown
/// signal was actually present.
double unknown_ber(const Collision& c, const Bits& bits)
{
    std::size_t errors = 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < c.unknown_bits.size(); ++k) {
        const std::size_t transition = c.unknown_start + k;
        if (transition >= bits.size())
            break;
        errors += (bits[transition] != c.unknown_bits[k]);
        ++total;
    }
    return total == 0 ? 1.0 : static_cast<double>(errors) / static_cast<double>(total);
}

/// Caller-owned decoder outputs, reused across calls as a leased buffer
/// would be.
class InterferenceDecoder : public ::testing::Test {
protected:
    const Interference_decoder decoder;
    std::vector<double> known_diffs;
    Bits bits;
    std::vector<double> phi_differences;
    std::vector<double> match_errors;
};

TEST_F(InterferenceDecoder, PerfectOverlapNoiseless)
{
    const Collision c = make_collision(1.0, 0.8, 400, 0, 601);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.0, 0.8, bits, phi_differences, match_errors);
    EXPECT_LT(unknown_ber(c, bits), 0.01);
}

TEST_F(InterferenceDecoder, PartialOverlapNoiseless)
{
    const Collision c = make_collision(1.0, 0.8, 400, 100, 602);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.0, 0.8, bits, phi_differences, match_errors);
    EXPECT_LT(unknown_ber(c, bits), 0.01);
}

TEST_F(InterferenceDecoder, EqualAmplitudes)
{
    // SIR = 0 dB, the hardest symmetric case; paper reports ~2% BER there
    // on real radios.  Noiseless simulation should do much better.
    const Collision c = make_collision(1.0, 1.0, 600, 50, 603);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.0, 1.0, bits, phi_differences, match_errors);
    EXPECT_LT(unknown_ber(c, bits), 0.05);
}

TEST_F(InterferenceDecoder, ModerateNoise)
{
    // SNR 25 dB — the paper's operating regime.
    const Collision c = make_collision(1.0, 0.9, 800, 60, 604, 1.0 / 316.0);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.0, 0.9, bits, phi_differences, match_errors);
    EXPECT_LT(unknown_ber(c, bits), 0.08);
}

TEST_F(InterferenceDecoder, StrongUnknownIsEasy)
{
    // SIR +6 dB (unknown twice the amplitude): paper says BER -> 0.
    const Collision c = make_collision(0.5, 1.0, 600, 40, 605, 1.0 / 316.0);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 0.5, 1.0, bits, phi_differences, match_errors);
    EXPECT_LT(unknown_ber(c, bits), 0.02);
}

TEST_F(InterferenceDecoder, ToleratesAmplitudeEstimateError)
{
    // Amplitudes 10% off must not collapse decoding (the paper's
    // robustness argument for working with phase differences).
    const Collision c = make_collision(1.0, 0.8, 600, 50, 606, 1.0 / 316.0);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.08, 0.74, bits, phi_differences, match_errors);
    EXPECT_LT(unknown_ber(c, bits), 0.1);
}

TEST_F(InterferenceDecoder, TailDecodedAsSingleSignal)
{
    // Transitions past the known signal's extent must demodulate the
    // unknown cleanly (its interference-free tail).
    const Collision c = make_collision(1.0, 0.8, 300, 150, 607);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.0, 0.8, bits, phi_differences, match_errors);
    // Unknown bits with transitions beyond known_diffs.size():
    std::size_t errors = 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < c.unknown_bits.size(); ++k) {
        const std::size_t transition = c.unknown_start + k;
        if (transition < known_diffs.size() || transition >= bits.size())
            continue;
        errors += (bits[transition] != c.unknown_bits[k]);
        ++total;
    }
    ASSERT_GT(total, 100u);
    EXPECT_EQ(errors, 0u);
}

TEST_F(InterferenceDecoder, MatchErrorsSmallInOverlap)
{
    const Collision c = make_collision(1.0, 0.8, 400, 0, 608);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.0, 0.8, bits, phi_differences, match_errors);
    ASSERT_EQ(match_errors.size(), known_diffs.size());
    double mean_error = 0.0;
    for (const double e : match_errors)
        mean_error += e;
    mean_error /= static_cast<double>(match_errors.size());
    EXPECT_LT(mean_error, 0.3);
}

TEST_F(InterferenceDecoder, OutputShapes)
{
    const Collision c = make_collision(1.0, 0.8, 100, 0, 609);
    dsp::phase_differences_for_bits_into(c.known_bits, known_diffs);
    decoder.decode_into(c.mix, known_diffs, 1.0, 0.8, bits, phi_differences, match_errors);
    EXPECT_EQ(bits.size(), c.mix.size() - 1);
    EXPECT_EQ(phi_differences.size(), c.mix.size() - 1);
}

TEST_F(InterferenceDecoder, EmptyAndTinyInputs)
{
    const std::vector<double> no_diffs;
    bits = {1, 0, 1}; // stale lease contents
    decoder.decode_into(dsp::Signal{}, no_diffs, 1.0, 1.0, bits, phi_differences,
                        match_errors);
    EXPECT_TRUE(bits.empty());
    bits = {1, 0, 1};
    decoder.decode_into(dsp::Signal{dsp::Sample{1.0, 0.0}}, no_diffs, 1.0, 1.0, bits,
                        phi_differences, match_errors);
    EXPECT_TRUE(bits.empty());
}

TEST_F(InterferenceDecoder, RejectsBadAmplitudes)
{
    const dsp::Signal two(2, dsp::Sample{1.0, 0.0});
    const std::vector<double> no_diffs;
    const auto decode = [&](double a, double b) {
        decoder.decode_into(two, no_diffs, a, b, bits, phi_differences, match_errors);
    };
    EXPECT_THROW(decode(0.0, 1.0), std::invalid_argument);
    // NaN fails every ordered comparison; it must not pass as "not <= 0".
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(decode(nan, 1.0), std::invalid_argument);
    EXPECT_THROW(decode(1.0, nan), std::invalid_argument);
}

TEST_F(InterferenceDecoder, BackwardDomainSymmetry)
{
    // Decode the same collision through the time-reversal transform with
    // the roles swapped: the "second" signal becomes the known one.
    const Collision c = make_collision(0.9, 1.0, 400, 80, 610);
    // In the reversed domain the unknown (previously known) signal starts
    // at offset 0 is false in general; we only check BER over the overlap.
    dsp::Signal reversed_mix;
    dsp::time_reverse_into(c.mix, reversed_mix);
    // The previously-unknown signal is now the known one.  Its samples end
    // at c.unknown_start + len + 1 in forward time; in reversed time it
    // starts at mix.size() - (unknown_start + len(bits) + 1).
    const std::size_t unknown_len_samples = c.unknown_bits.size() + 1;
    const std::size_t rev_start = c.mix.size() - (c.unknown_start + unknown_len_samples);
    const Bits known_rev = mirrored(c.unknown_bits);
    dsp::phase_differences_for_bits_into(known_rev, known_diffs);
    const dsp::Signal_view aligned =
        dsp::slice_view(reversed_mix, rev_start, reversed_mix.size());
    decoder.decode_into(aligned, known_diffs, 1.0, 0.9, bits, phi_differences, match_errors);

    // The decoded stream should now carry the *first* signal's bits in
    // reverse order, starting at transition (len of reversed prefix).
    const Bits expected = mirrored(c.known_bits);
    // known (forward) signal occupied samples [0, bits+1); in reversed,
    // relative to `aligned`, its bits start at:
    const std::size_t offset = c.mix.size() - (c.known_bits.size() + 1) - rev_start;
    std::size_t errors = 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < expected.size(); ++k) {
        const std::size_t transition = offset + k;
        if (transition >= bits.size())
            break;
        errors += (bits[transition] != expected[k]);
        ++total;
    }
    ASSERT_GT(total, 300u);
    EXPECT_LT(static_cast<double>(errors) / static_cast<double>(total), 0.02);
}

/// The exact profile's Eq. 7-8 core as the historical per-sample loop
/// computed it: solve_phases on each sample, the Eq. 8 selection over
/// the four candidate pairs, differential demodulation past the known
/// signal.
void sequential_phi_differences(dsp::Signal_view samples, std::span<const double> known_diffs,
                                double a, double b, std::vector<double>& phi_differences,
                                std::vector<double>& match_errors)
{
    phi_differences.clear();
    match_errors.clear();
    if (samples.size() < 2)
        return;
    Phase_solutions current = solve_phases(samples[0], a, b);
    for (std::size_t n = 0; n + 1 < samples.size(); ++n) {
        const Phase_solutions next = solve_phases(samples[n + 1], a, b);
        if (n < known_diffs.size()) {
            double best_error = 0.0;
            double best_phi_diff = 0.0;
            bool first = true;
            for (const Phase_pair& p_next : next.pair) {
                for (const Phase_pair& p_cur : current.pair) {
                    const double theta_diff = wrap_phase_bounded(p_next.theta - p_cur.theta);
                    const double error = phase_distance_bounded(theta_diff, known_diffs[n]);
                    if (first || error < best_error) {
                        best_error = error;
                        best_phi_diff = wrap_phase_bounded(p_next.phi - p_cur.phi);
                        first = false;
                    }
                }
            }
            phi_differences.push_back(best_phi_diff);
            match_errors.push_back(best_error);
        } else {
            phi_differences.push_back(std::arg(samples[n + 1] * std::conj(samples[n])));
        }
        current = next;
    }
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
            << "entry " << i << ": " << got[i] << " vs " << want[i];
}

TEST_F(InterferenceDecoder, ExactMatchesPerSampleSolveLoop)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    const double specials[] = {0.0, -0.0, inf, -inf, nan, 1e-300, 1e300};
    Pcg32 rng{611};
    const auto uniform = [&](double lo, double hi) { return lo + (hi - lo) * rng.next_double(); };
    std::vector<double> want_phi;
    std::vector<double> want_errors;
    for (int trial = 0; trial < 60; ++trial) {
        SCOPED_TRACE(trial);
        const double a = uniform(0.1, 2.0);
        const double b = uniform(0.1, 2.0);
        const std::size_t size = rng.next_in_range(0, 300);
        dsp::Signal samples(size);
        for (auto& y : samples) {
            // Mostly consistent with (a, b); a third of trials push |y|
            // outside [|a - b|, a + b], so D clamps; another third mix in
            // zeros, infinities, NaNs and extreme magnitudes.
            const double scale = trial % 3 == 1 ? uniform(0.0, 3.0 * (a + b)) : a + b;
            y = std::polar(uniform(0.0, 1.0) * scale, uniform(-4.0, 4.0));
            if (trial % 3 == 2 && rng.next_in_range(0, 3) == 0) {
                const double re = specials[rng.next_in_range(0, 6)];
                const double im = rng.next_in_range(0, 1) ? specials[rng.next_in_range(0, 6)]
                                                          : y.imag();
                y = {re, im};
            }
        }
        // Known spans shorter than, equal to and longer than the
        // transitions.
        known_diffs.resize(rng.next_in_range(0, static_cast<std::uint32_t>(size + 20)));
        for (double& diff : known_diffs)
            diff = trial % 2 == 0 ? std::numbers::pi * (rng.next_in_range(0, 1) ? 0.5 : -0.5)
                                  : uniform(-std::numbers::pi, std::numbers::pi);
        if (trial % 5 == 0 && !known_diffs.empty())
            known_diffs[0] = nan;
        decoder.decode_into(samples, known_diffs, a, b, bits, phi_differences, match_errors);
        sequential_phi_differences(samples, known_diffs, a, b, want_phi, want_errors);
        expect_same_bits(phi_differences, want_phi);
        expect_same_bits(match_errors, want_errors);
    }
}

} // namespace
} // namespace anc
