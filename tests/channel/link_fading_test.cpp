// Rayleigh block fading on the link channel: deterministic, counter-based
// per-block gains, block structure, and exact accumulation onto a
// buffer at an offset.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "channel/link.h"
#include "util/rng.h"

namespace anc::chan {
namespace {

dsp::Signal constant_signal(std::size_t size, dsp::Sample value = {1.0, 0.0})
{
    return dsp::Signal(size, value);
}

Link_params rayleigh_params(std::uint64_t fading_seed, std::size_t block)
{
    Link_params params;
    params.gain = 0.9;
    params.phase = 0.4;
    params.gain_model = Gain_model::rayleigh_block;
    params.coherence_block = block;
    params.fading_seed = fading_seed;
    return params;
}

TEST(LinkFading, DefaultModelIsFixed)
{
    EXPECT_EQ(Link_params{}.gain_model, Gain_model::fixed);
    // And the fixed path is exactly the historical formula.
    Link_params params;
    params.gain = 0.8;
    params.phase = 0.25;
    params.phase_drift = 0.001;
    const Link_channel channel{params};
    const dsp::Signal in = constant_signal(64, {0.5, -0.25});
    dsp::Signal out;
    channel.apply_onto(in, 0, out);
    for (std::size_t n = 0; n < in.size(); ++n) {
        const dsp::Sample expected =
            in[n] * std::polar(0.8, 0.25 + 0.001 * static_cast<double>(n));
        EXPECT_EQ(out[n], expected);
    }
}

TEST(LinkFading, DeterministicAndCallOrderIndependent)
{
    const Link_channel channel{rayleigh_params(1234, 16)};
    const dsp::Signal in = constant_signal(100);

    dsp::Signal first;
    channel.apply_onto(in, 0, first);
    dsp::Signal again;
    channel.apply_onto(in, 0, again);
    ASSERT_EQ(first.size(), again.size());
    for (std::size_t n = 0; n < first.size(); ++n)
        EXPECT_EQ(first[n], again[n]); // exact: draws are counter-based

    // A block gain is a pure function of (fading_seed, epoch, block) —
    // probing out of order or from a fresh channel gives identical values.
    const Link_channel fresh{rayleigh_params(1234, 16)};
    EXPECT_EQ(channel.block_gain(0, 5), fresh.block_gain(0, 5));
    EXPECT_EQ(channel.block_gain(0, 0), fresh.block_gain(0, 0));
    EXPECT_EQ(channel.block_gain(9, 5), fresh.block_gain(9, 5));
}

TEST(LinkFading, EpochsGiveFreshFades)
{
    // The fading epoch (advanced per exchange by the sims through
    // Medium::set_fading_epoch) refreshes every block's fade, so
    // successive packets over one link see independent realizations.
    const Link_channel channel{rayleigh_params(1234, 16)};
    EXPECT_NE(channel.block_gain(0, 0), channel.block_gain(1, 0));
    EXPECT_NE(channel.block_gain(1, 0), channel.block_gain(2, 0));
    EXPECT_NE(channel.block_gain(0, 3), channel.block_gain(1, 3));

    const dsp::Signal in = constant_signal(64);
    dsp::Signal epoch0;
    channel.apply_onto(in, 0, epoch0, 0);
    dsp::Signal epoch1;
    channel.apply_onto(in, 0, epoch1, 1);
    EXPECT_NE(epoch0[0], epoch1[0]);
    // apply_onto's default epoch is 0.
    dsp::Signal default_epoch;
    channel.apply_onto(in, 0, default_epoch);
    EXPECT_EQ(default_epoch[0], epoch0[0]);
}

TEST(LinkFading, BlockStructure)
{
    constexpr std::size_t block = 25;
    const Link_channel channel{rayleigh_params(77, block)};
    const dsp::Signal in = constant_signal(4 * block);
    dsp::Signal out;
    channel.apply_onto(in, 0, out);

    // Undo the deterministic rotation; what remains is gain * h_k,
    // constant within each block.
    for (std::size_t n = 0; n < out.size(); ++n) {
        const dsp::Sample fade =
            out[n] / std::polar(0.9, 0.4); // phase_drift defaults to 0
        const dsp::Sample expected = channel.block_gain(0, n / block);
        EXPECT_NEAR(fade.real(), expected.real(), 1e-12);
        EXPECT_NEAR(fade.imag(), expected.imag(), 1e-12);
    }
    // And consecutive blocks really differ.
    EXPECT_NE(channel.block_gain(0, 0), channel.block_gain(0, 1));
    EXPECT_NE(channel.block_gain(0, 1), channel.block_gain(0, 2));
}

TEST(LinkFading, ZeroCoherenceBlockIsQuasiStatic)
{
    const Link_channel channel{rayleigh_params(5, 0)};
    const dsp::Signal in = constant_signal(200);
    dsp::Signal out;
    channel.apply_onto(in, 0, out);
    const dsp::Sample h0 = channel.block_gain(0, 0);
    for (std::size_t n = 0; n < out.size(); ++n) {
        const dsp::Sample fade = out[n] / std::polar(0.9, 0.4);
        EXPECT_NEAR(fade.real(), h0.real(), 1e-12);
        EXPECT_NEAR(fade.imag(), h0.imag(), 1e-12);
    }
}

TEST(LinkFading, ApplyOntoAddsAtItsOffset)
{
    Link_params params = rayleigh_params(999, 32);
    params.phase_drift = 0.002;
    const Link_channel channel{params};

    Pcg32 rng{42};
    dsp::Signal in;
    for (int n = 0; n < 150; ++n)
        in.push_back({rng.next_double() - 0.5, rng.next_double() - 0.5});
    dsp::Signal acc;
    for (int n = 0; n < 60; ++n)
        acc.push_back({rng.next_double() + 0.5, rng.next_double() + 0.5});

    // Onto an empty buffer at offset 7: 7 zeros, then the channel output.
    constexpr std::size_t lead = 7;
    dsp::Signal fresh;
    channel.apply_onto(in, lead, fresh, 3);
    ASSERT_EQ(fresh.size(), lead + in.size());

    // Onto a shorter nonzero buffer 5 samples later: the same output added
    // sample for sample, the buffer grown with zeros to fit it.
    constexpr std::size_t at = 5;
    dsp::Signal want = acc;
    want.resize(at + fresh.size());
    for (std::size_t n = 0; n < fresh.size(); ++n)
        want[at + n] += fresh[n];
    channel.apply_onto(in, at + lead, acc, 3);
    ASSERT_EQ(acc.size(), want.size());
    for (std::size_t n = 0; n < acc.size(); ++n)
        EXPECT_EQ(acc[n], want[n]) << "sample " << n;
}

TEST(LinkFading, DistinctSeedsGiveIndependentFades)
{
    const Link_channel a{rayleigh_params(1, 16)};
    const Link_channel b{rayleigh_params(2, 16)};
    EXPECT_NE(a.block_gain(0, 0), b.block_gain(0, 0));
    EXPECT_NE(a.block_gain(0, 3), b.block_gain(0, 3));
}

TEST(LinkFading, MeanPowerGainIsGainSquared)
{
    // E[|h_k|^2] = 1, so the long-run power gain of a faded link is the
    // configured gain^2 — the "mean link gain" contract of the fading
    // scenarios.  10k blocks gives a ~1% standard error.
    const Link_channel channel{rayleigh_params(31337, 1)};
    double power = 0.0;
    constexpr int blocks = 10000;
    for (int k = 0; k < blocks; ++k)
        power += std::norm(channel.block_gain(0, static_cast<std::size_t>(k)));
    EXPECT_NEAR(power / blocks, 1.0, 0.05);
}

} // namespace
} // namespace anc::chan
