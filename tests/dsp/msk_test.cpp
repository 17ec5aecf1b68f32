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
    const Signal signal = modulator.modulate(bits);
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
    EXPECT_EQ(demodulator.demodulate(modulator.modulate(bits)), bits);
}

TEST(Msk, RoundTripIsChannelInvariant)
{
    // Demodulation must not care about attenuation h or phase shift gamma
    // (Eq. 1) — the core robustness claim of §5.3.
    Pcg32 rng{102};
    const Bits bits = random_bits(256, rng);
    const Msk_modulator modulator{1.0, 0.0};
    const Msk_demodulator demodulator;
    Signal signal = modulator.modulate(bits);
    signal = scaled(signal, 0.037);   // strong attenuation
    signal = rotated(signal, 2.1);    // arbitrary phase shift
    EXPECT_EQ(demodulator.demodulate(signal), bits);
}

TEST(Msk, SamplesPerBitIsOnePlusOne)
{
    const Msk_modulator modulator;
    EXPECT_EQ(modulator.modulate(Bits{}).size(), 1u);
    EXPECT_EQ(modulator.modulate(Bits{1, 0, 1}).size(), 4u);
}

TEST(Msk, PhaseDifferencesForBits)
{
    const Bits bits{1, 1, 0, 1, 0, 0};
    const auto diffs = phase_differences_for_bits(bits);
    ASSERT_EQ(diffs.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        EXPECT_DOUBLE_EQ(diffs[i], bits[i] ? pi / 2.0 : -pi / 2.0);
}

TEST(Msk, DemodulateShortSignals)
{
    const Msk_demodulator demodulator;
    EXPECT_TRUE(demodulator.demodulate(Signal{}).empty());
    EXPECT_TRUE(demodulator.demodulate(Signal{Sample{1.0, 0.0}}).empty());
}

TEST(Msk, TimeReversedStreamDemodulatesToReversedBits)
{
    // The foundation of backward decoding (§7.4): reverse + conjugate
    // yields the bit sequence in reverse order.
    Pcg32 rng{104};
    const Bits bits = random_bits(128, rng);
    const Msk_modulator modulator{1.0, 0.4};
    const Msk_demodulator demodulator;
    const Signal reversed_signal = time_reversed(modulator.modulate(bits));
    EXPECT_EQ(demodulator.demodulate(reversed_signal), mirrored(bits));
}

TEST(Msk, InitialPhaseDoesNotAffectBits)
{
    Pcg32 rng{105};
    const Bits bits = random_bits(64, rng);
    const Msk_demodulator demodulator;
    for (const double phase : {0.0, 0.5, 1.0, 2.0, 3.0}) {
        const Msk_modulator modulator{1.0, phase};
        EXPECT_EQ(demodulator.demodulate(modulator.modulate(bits)), bits);
    }
}

} // namespace
} // namespace anc::dsp
