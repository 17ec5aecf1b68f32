#include "channel/link.h"

#include <gtest/gtest.h>

#include <limits>

#include "dsp/msk.h"
#include "util/bits.h"
#include "util/rng.h"

namespace anc::chan {
namespace {

TEST(Link, AppliesGainAndPhase)
{
    Link_params params;
    params.gain = 0.5;
    params.phase = 1.2;
    const Link_channel link{params};
    const dsp::Signal in{{1.0, 0.0}, {0.0, 2.0}};
    dsp::Signal out;
    link.apply_onto(in, 0, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NEAR(std::abs(out[0]), 0.5, 1e-12);
    EXPECT_NEAR(std::arg(out[0]), 1.2, 1e-12);
    EXPECT_NEAR(std::abs(out[1]), 1.0, 1e-12);
}

TEST(Link, AppliesDelay)
{
    Link_params params;
    params.delay = 3;
    const Link_channel link{params};
    const dsp::Signal in{{1.0, 0.0}};
    dsp::Signal out;
    link.apply_onto(in, 0, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], (dsp::Sample{0.0, 0.0}));
    EXPECT_NEAR(out[3].real(), 1.0, 1e-12);
}

TEST(Link, PhaseDriftAccumulates)
{
    Link_params params;
    params.phase_drift = 0.01;
    const Link_channel link{params};
    const dsp::Signal in(100, dsp::Sample{1.0, 0.0});
    dsp::Signal out;
    link.apply_onto(in, 0, out);
    EXPECT_NEAR(std::arg(out[99]), 0.99, 1e-9);
}

TEST(Link, MskSurvivesChannelDistortion)
{
    // The end-to-end claim of §5.3: any (gain, phase) channel is
    // transparent to differential demodulation.
    Pcg32 rng{311};
    const Bits bits = random_bits(256, rng);
    const dsp::Msk_modulator modulator{1.0, 0.3};
    const dsp::Msk_demodulator demodulator;
    Link_params params;
    params.gain = 0.08;
    params.phase = 2.9;
    params.delay = 0;
    const Link_channel link{params};
    dsp::Signal signal;
    modulator.modulate_into(bits, signal);
    dsp::Signal received;
    link.apply_onto(signal, 0, received);
    Bits out;
    demodulator.demodulate_into(received, out);
    EXPECT_EQ(out, bits);
}

TEST(Link, MskToleratesSmallCfo)
{
    // A small carrier-frequency offset tilts every phase difference by the
    // same amount; MSK's +-pi/2 decision margins absorb it.
    Pcg32 rng{312};
    const Bits bits = random_bits(256, rng);
    const dsp::Msk_modulator modulator{1.0, 0.0};
    const dsp::Msk_demodulator demodulator;
    Link_params params;
    params.phase_drift = 0.05; // well under pi/2 per symbol
    const Link_channel link{params};
    dsp::Signal signal;
    modulator.modulate_into(bits, signal);
    dsp::Signal received;
    link.apply_onto(signal, 0, received);
    Bits out;
    demodulator.demodulate_into(received, out);
    EXPECT_EQ(out, bits);
}

TEST(Link, PowerGain)
{
    Link_params params;
    params.gain = 0.5;
    const Link_channel link{params};
    EXPECT_DOUBLE_EQ(link.power_gain(), 0.25);
}

TEST(Link, NegativeGainRejected)
{
    Link_params params;
    params.gain = -1.0;
    EXPECT_THROW(Link_channel{params}, std::invalid_argument);
    params.gain = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Link_channel{params}, std::invalid_argument);
}

} // namespace
} // namespace anc::chan
