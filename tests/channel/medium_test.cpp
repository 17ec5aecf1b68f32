#include "channel/medium.h"

#include <gtest/gtest.h>

#include "dsp/energy_scan.h"
#include "dsp/msk.h"
#include "util/bits.h"
#include "util/rng.h"

namespace anc::chan {
namespace {

Medium make_noiseless_medium()
{
    return Medium{0.0, Pcg32{321}};
}

TEST(Medium, SingleLinkDelivery)
{
    Medium medium = make_noiseless_medium();
    Link_params params;
    params.gain = 0.5;
    medium.set_link(1, 2, params);

    const dsp::Signal signal{dsp::Sample{2.0, 0.0}};
    const Transmission txs[] = {{1, signal, 0}};
    dsp::Signal rx(5, dsp::Sample{9.0, 9.0}); // stale lease contents
    medium.receive_into(2, txs, 0, rx);
    ASSERT_EQ(rx.size(), 1u);
    EXPECT_NEAR(rx[0].real(), 1.0, 1e-12);
}

TEST(Medium, OutOfRangeSenderIsSilent)
{
    Medium medium = make_noiseless_medium();
    // no link 1 -> 2
    const dsp::Signal signal{dsp::Sample{1.0, 0.0}};
    const Transmission txs[] = {{1, signal, 0}};
    dsp::Signal rx;
    medium.receive_into(2, txs, 0, rx);
    for (const auto& s : rx)
        EXPECT_EQ(s, (dsp::Sample{0.0, 0.0}));
}

TEST(Medium, HalfDuplexSkipsOwnTransmission)
{
    Medium medium = make_noiseless_medium();
    medium.set_link(1, 1, {}); // even with a pathological self-link
    const dsp::Signal signal{dsp::Sample{1.0, 0.0}};
    const Transmission txs[] = {{1, signal, 0}};
    dsp::Signal rx;
    medium.receive_into(1, txs, 0, rx);
    for (const auto& s : rx)
        EXPECT_EQ(s, (dsp::Sample{0.0, 0.0}));
}

TEST(Medium, ConcurrentTransmissionsAdd)
{
    // The paper's core physical fact: the channel *adds* interfering
    // signals (§1, §6).
    Medium medium = make_noiseless_medium();
    medium.set_link(1, 3, {});
    medium.set_link(2, 3, {});
    const dsp::Signal signal_a{dsp::Sample{1.0, 0.0}, dsp::Sample{1.0, 0.0}};
    const dsp::Signal signal_b{dsp::Sample{0.0, 1.0}, dsp::Sample{0.0, 1.0}};
    const Transmission txs[] = {{1, signal_a, 0}, {2, signal_b, 0}};
    dsp::Signal rx;
    medium.receive_into(3, txs, 0, rx);
    ASSERT_EQ(rx.size(), 2u);
    EXPECT_NEAR(rx[0].real(), 1.0, 1e-12);
    EXPECT_NEAR(rx[0].imag(), 1.0, 1e-12);
}

TEST(Medium, StartOffsetsShiftSignals)
{
    Medium medium = make_noiseless_medium();
    medium.set_link(1, 3, {});
    medium.set_link(2, 3, {});
    const dsp::Signal signal_a{dsp::Sample{1.0, 0.0}};
    const dsp::Signal signal_b{dsp::Sample{0.0, 1.0}};
    const Transmission txs[] = {{1, signal_a, 0}, {2, signal_b, 2}};
    dsp::Signal rx;
    medium.receive_into(3, txs, 0, rx);
    ASSERT_EQ(rx.size(), 3u);
    EXPECT_NEAR(rx[0].real(), 1.0, 1e-12);
    EXPECT_EQ(rx[1], (dsp::Sample{0.0, 0.0}));
    EXPECT_NEAR(rx[2].imag(), 1.0, 1e-12);
}

TEST(Medium, NoiseAddedAtReceiver)
{
    Medium medium{0.1, Pcg32{322}};
    medium.set_link(1, 2, {});
    const dsp::Signal signal(20000, dsp::Sample{1.0, 0.0});
    const Transmission txs[] = {{1, signal, 0}};
    dsp::Signal rx;
    medium.receive_into(2, txs, 0, rx);
    EXPECT_NEAR(dsp::mean_energy(rx), 1.1, 0.02);
}

TEST(Medium, TrailingNoisePadding)
{
    Medium medium{0.1, Pcg32{323}};
    medium.set_link(1, 2, {});
    const dsp::Signal signal(10, dsp::Sample{1.0, 0.0});
    const Transmission txs[] = {{1, signal, 0}};
    dsp::Signal rx;
    medium.receive_into(2, txs, 32, rx);
    EXPECT_EQ(rx.size(), 42u);
}

TEST(Medium, MissingLinkThrowsOnQuery)
{
    Medium medium = make_noiseless_medium();
    EXPECT_THROW(medium.link(1, 2), std::out_of_range);
    medium.set_link(1, 2, {});
    EXPECT_NO_THROW(medium.link(1, 2));
    EXPECT_TRUE(medium.has_link(1, 2));
    EXPECT_FALSE(medium.has_link(2, 1));
}

TEST(Medium, InterferedMskStreamsDecodeAfterCancellation)
{
    // Noiseless sanity check of the full collision path at the sample
    // level: receive a collision, subtract one channel-distorted signal,
    // demodulate the other.
    Pcg32 rng{324};
    const Bits bits_a = random_bits(100, rng);
    const Bits bits_b = random_bits(100, rng);
    const dsp::Msk_modulator modulator{1.0, 0.0};

    Medium medium = make_noiseless_medium();
    Link_params link_a;
    link_a.gain = 0.9;
    link_a.phase = 0.7;
    Link_params link_b;
    link_b.gain = 0.6;
    link_b.phase = -1.1;
    medium.set_link(1, 3, link_a);
    medium.set_link(2, 3, link_b);

    dsp::Signal signal_a;
    dsp::Signal signal_b;
    modulator.modulate_into(bits_a, signal_a);
    modulator.modulate_into(bits_b, signal_b);
    const Transmission txs[] = {{1, signal_a, 0}, {2, signal_b, 0}};
    dsp::Signal rx;
    medium.receive_into(3, txs, 0, rx);

    // Genie cancellation of A's contribution.
    dsp::Signal a_at_rx;
    medium.link(1, 3).apply_onto(signal_a, 0, a_at_rx);
    dsp::Signal residual = rx;
    for (std::size_t i = 0; i < a_at_rx.size(); ++i)
        residual[i] -= a_at_rx[i];

    const dsp::Msk_demodulator demodulator;
    Bits decoded;
    demodulator.demodulate_into(residual, decoded);
    EXPECT_EQ(decoded, bits_b);
}

} // namespace
} // namespace anc::chan
