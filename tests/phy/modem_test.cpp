#include "phy/modem.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/link.h"
#include "dsp/ops.h"
#include "util/rng.h"

namespace anc::phy {
namespace {

Frame_header make_header(std::uint16_t payload_bits, std::uint16_t seq = 1)
{
    Frame_header header;
    header.src = 10;
    header.dst = 20;
    header.seq = seq;
    header.payload_bits = payload_bits;
    return header;
}

TEST(Modem, LoopbackRoundTrip)
{
    Pcg32 rng{451};
    const Bits payload = random_bits(512, rng);
    const Modem modem;
    dsp::Signal signal;
    modem.modulate_into(modem.frame_bits(make_header(512), payload), 0.0, signal);
    const auto frame = modem.receive(signal);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->header, make_header(512));
    EXPECT_EQ(frame->payload, payload);
    EXPECT_EQ(frame->pilot_errors, 0u);
}

TEST(Modem, RoundTripThroughDistortedChannel)
{
    Pcg32 rng{452};
    const Bits payload = random_bits(256, rng);
    const Modem modem;
    dsp::Signal signal;
    modem.modulate_into(modem.frame_bits(make_header(256), payload), 0.9, signal);

    chan::Link_params params;
    params.gain = 0.2;
    params.phase = -2.2;
    params.delay = 17;
    dsp::Signal received;
    chan::Link_channel{params}.apply_onto(signal, 0, received);
    chan::Awgn noise{0.2 * 0.2 / 316.0, Pcg32{453}}; // ~25 dB post-attenuation
    noise.add_in_place(received);

    const auto frame = modem.receive(received);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, payload);
}

TEST(Modem, FrameBitsAreWhitened)
{
    // A constant payload must not appear as a constant run on the air.
    const Bits zeros(600, 0);
    const Modem modem;
    const Bits on_air = modem.frame_bits(make_header(600), zeros);
    const Frame_offsets o = frame_offsets(600);
    std::size_t ones = 0;
    for (std::size_t i = o.payload; i < o.tail_crc; ++i)
        ones += on_air[i];
    EXPECT_NEAR(static_cast<double>(ones) / 600.0, 0.5, 0.1);
}

TEST(Modem, DescrambleInvertsWhitening)
{
    Pcg32 rng{454};
    const Bits payload = random_bits(128, rng);
    const Modem modem;
    const Bits on_air = modem.frame_bits(make_header(128), payload);
    const Frame_offsets o = frame_offsets(128);
    const Bits whitened{on_air.begin() + static_cast<long>(o.payload),
                        on_air.begin() + static_cast<long>(o.payload + 128)};
    EXPECT_NE(whitened, payload);
    EXPECT_EQ(modem.descramble(whitened), payload);
}

TEST(Modem, NoFrameInNoise)
{
    Pcg32 rng{455};
    dsp::Signal noise_only(2000, dsp::Sample{0.0, 0.0});
    chan::Awgn noise{1.0, Pcg32{456}};
    noise.add_in_place(noise_only);
    const Modem modem;
    EXPECT_FALSE(modem.receive(noise_only).has_value());
    (void)rng;
}

TEST(Modem, SurvivesSparseBitErrors)
{
    // Pilot tolerance: flips inside the pilot region shouldn't kill sync
    // as long as they stay under the tolerance.
    Pcg32 rng{457};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    Bits frame_bits = modem.frame_bits(make_header(64), payload);
    frame_bits[2] ^= 1u;  // pilot bit
    frame_bits[40] ^= 1u; // pilot bit
    dsp::Signal signal;
    modem.modulate_into(frame_bits, 0.0, signal);
    const auto frame = modem.receive(signal);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->pilot_errors, 2u);
    EXPECT_EQ(frame->payload, payload);
}

TEST(Modem, HeaderCorruptionFailsReceive)
{
    Pcg32 rng{458};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    Bits frame_bits = modem.frame_bits(make_header(64), payload);
    frame_bits[80] ^= 1u; // header bit -> CRC mismatch
    dsp::Signal signal;
    modem.modulate_into(frame_bits, 0.0, signal);
    EXPECT_FALSE(modem.receive(signal).has_value());
}

TEST(Modem, ReportsPilotPosition)
{
    Pcg32 rng{460};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    dsp::Signal frame_signal;
    modem.modulate_into(modem.frame_bits(make_header(64), payload), 0.0, frame_signal);
    dsp::Signal signal;
    dsp::accumulate(signal, frame_signal, 50); // 50 samples of leading silence
    const auto frame = modem.receive(signal);
    ASSERT_TRUE(frame.has_value());
    // 50 samples of leading silence put the pilot at bit position ~50.
    EXPECT_NEAR(static_cast<double>(frame->pilot_position), 50.0, 2.0);
}

TEST(Modem, PayloadCorruptionFailsReceive)
{
    // A clean receive must be verifiably clean (payload FCS).
    Pcg32 rng{459};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    Bits frame_bits = modem.frame_bits(make_header(64), payload);
    const Frame_offsets o = frame_offsets(64);
    frame_bits[o.payload + 5] ^= 1u;
    dsp::Signal signal;
    modem.modulate_into(frame_bits, 0.0, signal);
    EXPECT_FALSE(modem.receive(signal).has_value());
}

} // namespace
} // namespace anc::phy
