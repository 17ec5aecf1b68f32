#include "core/interference_decoder.h"

#include <gtest/gtest.h>

#include <limits>

#include "channel/awgn.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/bits.h"
#include "util/rng.h"

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
    c.mix = mod_a.modulate(c.known_bits);
    dsp::accumulate(c.mix, mod_b.modulate(c.unknown_bits), unknown_offset);
    if (noise_power > 0.0) {
        chan::Awgn noise{noise_power, rng.fork(7)};
        noise.add_in_place(c.mix);
    }
    return c;
}

/// BER of the decoded unknown bits over the region where the unknown
/// signal was actually present.
double unknown_ber(const Collision& c, const Interference_decode_result& result)
{
    std::size_t errors = 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < c.unknown_bits.size(); ++k) {
        const std::size_t transition = c.unknown_start + k;
        if (transition >= result.bits.size())
            break;
        errors += (result.bits[transition] != c.unknown_bits[k]);
        ++total;
    }
    return total == 0 ? 1.0 : static_cast<double>(errors) / static_cast<double>(total);
}

TEST(InterferenceDecoder, PerfectOverlapNoiseless)
{
    const Collision c = make_collision(1.0, 0.8, 400, 0, 601);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.0, 0.8);
    EXPECT_LT(unknown_ber(c, result), 0.01);
}

TEST(InterferenceDecoder, PartialOverlapNoiseless)
{
    const Collision c = make_collision(1.0, 0.8, 400, 100, 602);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.0, 0.8);
    EXPECT_LT(unknown_ber(c, result), 0.01);
}

TEST(InterferenceDecoder, EqualAmplitudes)
{
    // SIR = 0 dB, the hardest symmetric case; paper reports ~2% BER there
    // on real radios.  Noiseless simulation should do much better.
    const Collision c = make_collision(1.0, 1.0, 600, 50, 603);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.0, 1.0);
    EXPECT_LT(unknown_ber(c, result), 0.05);
}

TEST(InterferenceDecoder, ModerateNoise)
{
    // SNR 25 dB — the paper's operating regime.
    const Collision c = make_collision(1.0, 0.9, 800, 60, 604, 1.0 / 316.0);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.0, 0.9);
    EXPECT_LT(unknown_ber(c, result), 0.08);
}

TEST(InterferenceDecoder, StrongUnknownIsEasy)
{
    // SIR +6 dB (unknown twice the amplitude): paper says BER -> 0.
    const Collision c = make_collision(0.5, 1.0, 600, 40, 605, 1.0 / 316.0);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 0.5, 1.0);
    EXPECT_LT(unknown_ber(c, result), 0.02);
}

TEST(InterferenceDecoder, ToleratesAmplitudeEstimateError)
{
    // Amplitudes 10% off must not collapse decoding (the paper's
    // robustness argument for working with phase differences).
    const Collision c = make_collision(1.0, 0.8, 600, 50, 606, 1.0 / 316.0);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.08, 0.74);
    EXPECT_LT(unknown_ber(c, result), 0.1);
}

TEST(InterferenceDecoder, TailDecodedAsSingleSignal)
{
    // Transitions past the known signal's extent must demodulate the
    // unknown cleanly (its interference-free tail).
    const Collision c = make_collision(1.0, 0.8, 300, 150, 607);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.0, 0.8);
    // Unknown bits with transitions beyond known_diffs.size():
    std::size_t errors = 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < c.unknown_bits.size(); ++k) {
        const std::size_t transition = c.unknown_start + k;
        if (transition < known_diffs.size() || transition >= result.bits.size())
            continue;
        errors += (result.bits[transition] != c.unknown_bits[k]);
        ++total;
    }
    ASSERT_GT(total, 100u);
    EXPECT_EQ(errors, 0u);
}

TEST(InterferenceDecoder, MatchErrorsSmallInOverlap)
{
    const Collision c = make_collision(1.0, 0.8, 400, 0, 608);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.0, 0.8);
    ASSERT_EQ(result.match_errors.size(), known_diffs.size());
    double mean_error = 0.0;
    for (const double e : result.match_errors)
        mean_error += e;
    mean_error /= static_cast<double>(result.match_errors.size());
    EXPECT_LT(mean_error, 0.3);
}

TEST(InterferenceDecoder, OutputShapes)
{
    const Collision c = make_collision(1.0, 0.8, 100, 0, 609);
    const auto known_diffs = dsp::phase_differences_for_bits(c.known_bits);
    const Interference_decoder decoder;
    const auto result = decoder.decode(c.mix, known_diffs, 1.0, 0.8);
    EXPECT_EQ(result.bits.size(), c.mix.size() - 1);
    EXPECT_EQ(result.phi_differences.size(), c.mix.size() - 1);
}

TEST(InterferenceDecoder, EmptyAndTinyInputs)
{
    const Interference_decoder decoder;
    const std::vector<double> no_diffs;
    EXPECT_TRUE(decoder.decode(dsp::Signal{}, no_diffs, 1.0, 1.0).bits.empty());
    EXPECT_TRUE(decoder.decode(dsp::Signal{dsp::Sample{1.0, 0.0}}, no_diffs, 1.0, 1.0)
                    .bits.empty());
}

TEST(InterferenceDecoder, RejectsBadAmplitudes)
{
    const Interference_decoder decoder;
    const dsp::Signal two(2, dsp::Sample{1.0, 0.0});
    const std::vector<double> no_diffs;
    EXPECT_THROW(decoder.decode(two, no_diffs, 0.0, 1.0), std::invalid_argument);
    // NaN fails every ordered comparison; it must not pass as "not <= 0".
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(decoder.decode(two, no_diffs, nan, 1.0), std::invalid_argument);
    EXPECT_THROW(decoder.decode(two, no_diffs, 1.0, nan), std::invalid_argument);
}

TEST(InterferenceDecoder, BackwardDomainSymmetry)
{
    // Decode the same collision through the time-reversal transform with
    // the roles swapped: the "second" signal becomes the known one.
    const Collision c = make_collision(0.9, 1.0, 400, 80, 610);
    // In the reversed domain the unknown (previously known) signal starts
    // at offset 0 is false in general; we only check BER over the overlap.
    const dsp::Signal reversed_mix = dsp::time_reversed(c.mix);
    // The previously-unknown signal is now the known one.  Its samples end
    // at c.unknown_start + len + 1 in forward time; in reversed time it
    // starts at mix.size() - (unknown_start + len(bits) + 1).
    const std::size_t unknown_len_samples = c.unknown_bits.size() + 1;
    const std::size_t rev_start = c.mix.size() - (c.unknown_start + unknown_len_samples);
    const Bits known_rev = mirrored(c.unknown_bits);
    const auto known_diffs = dsp::phase_differences_for_bits(known_rev);
    const Interference_decoder decoder;
    const dsp::Signal aligned = dsp::slice(reversed_mix, rev_start, reversed_mix.size());
    const auto result = decoder.decode(aligned, known_diffs, 1.0, 0.9);

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
        if (transition >= result.bits.size())
            break;
        errors += (result.bits[transition] != expected[k]);
        ++total;
    }
    ASSERT_GT(total, 300u);
    EXPECT_LT(static_cast<double>(errors) / static_cast<double>(total), 0.02);
}

} // namespace
} // namespace anc
