#include "core/anc_receiver.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/link.h"
#include "core/relay.h"
#include "dsp/ops.h"
#include "util/bits.h"
#include "util/db.h"
#include "util/rng.h"

namespace anc {
namespace {

constexpr double snr_db = 25.0; // the paper's WLAN operating point
const double noise_power = chan::noise_power_for_snr_db(snr_db);

struct Test_node {
    phy::Modem modem;
    Sent_packet_buffer buffer;

    void send(const phy::Frame_header& header, const Bits& payload, double phase,
              dsp::Signal& out)
    {
        const Bits frame = modem.frame_bits(header, payload);
        Stored_frame stored;
        stored.header = header;
        stored.frame_bits = frame;
        stored.payload = payload;
        buffer.store(stored);
        modem.modulate_into(frame, phase, out);
    }
};

phy::Frame_header make_header(std::uint8_t src, std::uint8_t dst, std::uint16_t seq,
                              std::uint16_t payload_bits)
{
    phy::Frame_header header;
    header.src = src;
    header.dst = dst;
    header.seq = seq;
    header.payload_bits = payload_bits;
    return header;
}

/// Build the Alice-Bob collision as the *relay* hears it, then re-amplify
/// and deliver it to a destination, mimicking the two ANC rounds.
struct Alice_bob_exchange {
    Test_node alice;
    Test_node bob;
    Bits alice_payload;
    Bits bob_payload;
    dsp::Signal at_alice; // what Alice hears after the relay broadcast
    dsp::Signal at_bob;
};

Alice_bob_exchange run_exchange(std::uint64_t seed, std::size_t payload_bits = 512,
                                std::size_t alice_start = 0, std::size_t bob_start = 160,
                                double bob_amplitude = 1.0)
{
    Pcg32 rng{seed};
    Alice_bob_exchange x;
    x.alice_payload = random_bits(payload_bits, rng);
    x.bob_payload = random_bits(payload_bits, rng);

    phy::Modem_config bob_modem;
    bob_modem.amplitude = bob_amplitude;
    x.bob.modem = phy::Modem{bob_modem};

    const auto h_a = make_header(1, 2, 100, static_cast<std::uint16_t>(payload_bits));
    const auto h_b = make_header(2, 1, 200, static_cast<std::uint16_t>(payload_bits));
    dsp::Signal sig_a;
    dsp::Signal sig_b;
    x.alice.send(h_a, x.alice_payload, rng.next_double() * 6.28, sig_a);
    x.bob.send(h_b, x.bob_payload, rng.next_double() * 6.28, sig_b);

    // Round 1: both transmit; the relay hears the sum plus its own noise.
    // The two uplinks carry a small relative carrier-frequency offset, as
    // any two physical radios would.
    dsp::Signal at_relay;
    chan::Link_channel{{0.9, 0.4, 0, 0.002}}.apply_onto(sig_a, alice_start, at_relay);
    chan::Link_channel{{0.85, -1.2, 0, -0.002}}.apply_onto(sig_b, bob_start, at_relay);
    chan::Awgn relay_noise{noise_power, rng.fork(1)};
    relay_noise.add_in_place(at_relay);

    // Round 2: amplify-and-forward to both ends.
    dsp::Signal broadcast;
    if (!amplify_and_forward_into(at_relay, noise_power, 1.0, broadcast))
        throw std::runtime_error{"relay detected no packet"};

    chan::Link_channel{{0.9, 1.9, 0, 0.0}}.apply_onto(broadcast, 0, x.at_alice);
    chan::Awgn alice_noise{noise_power, rng.fork(2)};
    alice_noise.add_in_place(x.at_alice);

    chan::Link_channel{{0.85, -0.3, 0, 0.0}}.apply_onto(broadcast, 0, x.at_bob);
    chan::Awgn bob_noise{noise_power, rng.fork(3)};
    bob_noise.add_in_place(x.at_bob);
    return x;
}

Anc_receiver make_receiver()
{
    return Anc_receiver{Anc_receiver_config{}, noise_power};
}

TEST(AncReceiver, SilenceIsNoPacket)
{
    Pcg32 rng{901};
    dsp::Signal silence(3000, dsp::Sample{0.0, 0.0});
    chan::Awgn noise{noise_power, rng};
    noise.add_in_place(silence);
    const Anc_receiver receiver = make_receiver();
    const Sent_packet_buffer empty;
    EXPECT_EQ(receiver.receive(silence, empty).status, Receive_status::no_packet);
}

TEST(AncReceiver, CleanPacketDecodesStandard)
{
    Pcg32 rng{902};
    Test_node sender;
    const Bits payload = random_bits(400, rng);
    dsp::Signal packet;
    sender.send(make_header(1, 2, 1, 400), payload, 0.5, packet);
    dsp::Signal signal;
    dsp::accumulate(signal, packet, 120); // 120 samples of leading silence
    chan::Awgn noise{noise_power, rng.fork(1)};
    noise.add_in_place(signal);

    const Anc_receiver receiver = make_receiver();
    const Sent_packet_buffer empty;
    const Receive_outcome outcome = receiver.receive(signal, empty);
    ASSERT_EQ(outcome.status, Receive_status::clean);
    ASSERT_TRUE(outcome.frame.has_value());
    EXPECT_EQ(outcome.frame->payload, payload);
}

TEST(AncReceiver, AliceDecodesForward)
{
    // Alice's packet starts first: she decodes Bob's packet forward.
    const Alice_bob_exchange x = run_exchange(903);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(x.at_alice, x.alice.buffer);
    ASSERT_EQ(outcome.status, Receive_status::decoded_interference);
    ASSERT_TRUE(outcome.frame.has_value());
    EXPECT_FALSE(outcome.diag.backward);
    EXPECT_EQ(outcome.frame->header.src, 2);
    const double ber = bit_error_rate(outcome.frame->payload, x.bob_payload);
    EXPECT_LT(ber, 0.05) << "Alice->Bob payload BER";
}

TEST(AncReceiver, BobDecodesBackward)
{
    // Bob's packet starts second: he must decode backward (§7.4).
    const Alice_bob_exchange x = run_exchange(904);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(x.at_bob, x.bob.buffer);
    ASSERT_EQ(outcome.status, Receive_status::decoded_interference);
    ASSERT_TRUE(outcome.frame.has_value());
    EXPECT_TRUE(outcome.diag.backward);
    EXPECT_EQ(outcome.frame->header.src, 1);
    const double ber = bit_error_rate(outcome.frame->payload, x.alice_payload);
    EXPECT_LT(ber, 0.05) << "Bob->Alice payload BER";
}

TEST(AncReceiver, BothHeadersVisibleInDiagnostics)
{
    const Alice_bob_exchange x = run_exchange(905);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(x.at_alice, x.alice.buffer);
    ASSERT_TRUE(outcome.diag.first_header.has_value());
    ASSERT_TRUE(outcome.diag.second_header.has_value());
    EXPECT_EQ(outcome.diag.first_header->src, 1); // Alice started first
    EXPECT_EQ(outcome.diag.second_header->src, 2);
}

TEST(AncReceiver, UnknownCollisionIsForwardCandidate)
{
    // A third party (the relay) hears the same collision but knows
    // neither packet: it must classify it as forwardable, not decode it.
    const Alice_bob_exchange x = run_exchange(906);
    const Anc_receiver receiver = make_receiver();
    const Sent_packet_buffer empty;
    const Receive_outcome outcome = receiver.receive(x.at_alice, empty);
    EXPECT_EQ(outcome.status, Receive_status::forward_candidate);
}

TEST(AncReceiver, AmplitudeEstimatesAreSane)
{
    const Alice_bob_exchange x = run_exchange(907);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(x.at_alice, x.alice.buffer);
    ASSERT_EQ(outcome.status, Receive_status::decoded_interference);
    EXPECT_GT(outcome.diag.est_known_amp, 0.1);
    EXPECT_GT(outcome.diag.est_unknown_amp, 0.1);
    // Links were near-symmetric, so the two estimates should be within ~2x.
    EXPECT_LT(outcome.diag.est_known_amp / outcome.diag.est_unknown_amp, 2.2);
    EXPECT_GT(outcome.diag.est_known_amp / outcome.diag.est_unknown_amp, 0.45);
}

TEST(AncReceiver, WorksAtNegativeSir)
{
    // Bob transmits at twice the amplitude (SIR at Alice ~ +6 dB for
    // decoding Bob; at Bob, Alice's signal is -6 dB relative to his own —
    // the regime prior art cannot handle, §11.7).
    const Alice_bob_exchange x = run_exchange(908, 512, 0, 96, 2.0);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome at_bob = receiver.receive(x.at_bob, x.bob.buffer);
    ASSERT_EQ(at_bob.status, Receive_status::decoded_interference);
    const double ber = bit_error_rate(at_bob.frame->payload, x.alice_payload);
    EXPECT_LT(ber, 0.06);
}

TEST(AncReceiver, LargerJitterStillDecodes)
{
    const Alice_bob_exchange x = run_exchange(909, 512, 0, 400);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(x.at_alice, x.alice.buffer);
    ASSERT_EQ(outcome.status, Receive_status::decoded_interference);
    EXPECT_LT(bit_error_rate(outcome.frame->payload, x.bob_payload), 0.05);
}

TEST(AncReceiver, MuSigmaOnlyAblationStillWorks)
{
    Anc_receiver_config config;
    config.mu_sigma_only = true;
    const Anc_receiver receiver{config, noise_power};
    const Alice_bob_exchange x = run_exchange(910);
    const Receive_outcome outcome = receiver.receive(x.at_alice, x.alice.buffer);
    ASSERT_EQ(outcome.status, Receive_status::decoded_interference);
    EXPECT_LT(bit_error_rate(outcome.frame->payload, x.bob_payload), 0.10);
}

TEST(AncReceiver, DeterministicAcrossRuns)
{
    const Alice_bob_exchange x1 = run_exchange(911);
    const Alice_bob_exchange x2 = run_exchange(911);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome o1 = receiver.receive(x1.at_alice, x1.alice.buffer);
    const Receive_outcome o2 = receiver.receive(x2.at_alice, x2.alice.buffer);
    ASSERT_EQ(o1.status, o2.status);
    ASSERT_TRUE(o1.frame.has_value());
    EXPECT_EQ(o1.frame->payload, o2.frame->payload);
}

} // namespace
} // namespace anc
