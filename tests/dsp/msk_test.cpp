#include "dsp/msk.h"

#include <gtest/gtest.h>

#include <numbers>

#include "dsp/ops.h"
#include "util/bits.h"
#include "util/phase.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

constexpr double pi = std::numbers::pi;

TEST(Msk, PhaseStepMapping)
{
    EXPECT_DOUBLE_EQ(msk_phase_step(1), pi / 2.0);
    EXPECT_DOUBLE_EQ(msk_phase_step(0), -pi / 2.0);
}

TEST(Msk, PaperWalkthroughExample)
{
    // §5.2: data 10 -> phases 0, pi/2, 0 (1 advances, 0 retreats).
    const Bits bits{1, 0};
    const Msk_modulator modulator{2.5, 0.0};
    Signal signal;
    modulator.modulate_into(bits, signal);
    ASSERT_EQ(signal.size(), 3u);
    EXPECT_NEAR(std::arg(signal[0]), 0.0, 1e-12);
    EXPECT_NEAR(std::arg(signal[1]), pi / 2.0, 1e-12);
    EXPECT_NEAR(std::arg(signal[2]), 0.0, 1e-12);
    for (const Sample& s : signal)
        EXPECT_NEAR(std::abs(s), 2.5, 1e-12); // constant envelope
}

TEST(Msk, RoundTripCleanChannel)
{
    Pcg32 rng{101};
    const Bits bits = random_bits(512, rng);
    const Msk_modulator modulator{1.0, 0.7};
    const Msk_demodulator demodulator;
    Signal signal;
    modulator.modulate_into(bits, signal);
    Bits decoded;
    demodulator.demodulate_into(signal, decoded);
    EXPECT_EQ(decoded, bits);
}

TEST(Msk, RoundTripIsChannelInvariant)
{
    // Demodulation must not care about attenuation h or phase shift gamma
    // (Eq. 1) — the core robustness claim of §5.3.
    Pcg32 rng{102};
    const Bits bits = random_bits(256, rng);
    const Msk_modulator modulator{1.0, 0.0};
    const Msk_demodulator demodulator;
    Signal signal;
    modulator.modulate_into(bits, signal);
    const Sample channel = std::polar(0.037, 2.1); // strong attenuation, arbitrary phase
    for (Sample& s : signal)
        s *= channel;
    Bits decoded;
    demodulator.demodulate_into(signal, decoded);
    EXPECT_EQ(decoded, bits);
}

TEST(Msk, SamplesPerBitIsOnePlusOne)
{
    const Msk_modulator modulator;
    Signal signal;
    modulator.modulate_into(Bits{}, signal);
    EXPECT_EQ(signal.size(), 1u);
    modulator.modulate_into(Bits{1, 0, 1}, signal);
    EXPECT_EQ(signal.size(), 4u);
}

TEST(Msk, PhaseDifferencesForBits)
{
    const Bits bits{1, 1, 0, 1, 0, 0};
    std::vector<double> diffs;
    phase_differences_for_bits_into(bits, diffs);
    ASSERT_EQ(diffs.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        EXPECT_DOUBLE_EQ(diffs[i], bits[i] ? pi / 2.0 : -pi / 2.0);
}

TEST(Msk, DemodulateShortSignals)
{
    const Msk_demodulator demodulator;
    Bits bits{1, 0}; // stale lease contents
    demodulator.demodulate_into(Signal{}, bits);
    EXPECT_TRUE(bits.empty());
    bits = {1, 0};
    demodulator.demodulate_into(Signal{Sample{1.0, 0.0}}, bits);
    EXPECT_TRUE(bits.empty());
}

TEST(Msk, TimeReversedStreamDemodulatesToReversedBits)
{
    // The foundation of backward decoding (§7.4): reverse + conjugate
    // yields the bit sequence in reverse order.
    Pcg32 rng{104};
    const Bits bits = random_bits(128, rng);
    const Msk_modulator modulator{1.0, 0.4};
    const Msk_demodulator demodulator;
    Signal signal;
    modulator.modulate_into(bits, signal);
    Signal reversed_signal;
    time_reverse_into(signal, reversed_signal);
    Bits decoded;
    demodulator.demodulate_into(reversed_signal, decoded);
    EXPECT_EQ(decoded, mirrored(bits));
}

TEST(Msk, InitialPhaseDoesNotAffectBits)
{
    Pcg32 rng{105};
    const Bits bits = random_bits(64, rng);
    const Msk_demodulator demodulator;
    Signal signal;
    Bits decoded;
    for (const double phase : {0.0, 0.5, 1.0, 2.0, 3.0}) {
        const Msk_modulator modulator{1.0, phase};
        modulator.modulate_into(bits, signal);
        demodulator.demodulate_into(signal, decoded);
        EXPECT_EQ(decoded, bits);
    }
}

} // namespace
} // namespace anc::dsp
