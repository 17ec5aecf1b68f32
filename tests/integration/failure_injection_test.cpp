// Failure injection: the receiver must degrade *gracefully* — wrong
// buffers, truncated air, complete overlap, corrupted regions — never
// crash, never fabricate a packet.

#include <gtest/gtest.h>

#include <stdexcept>

#include "channel/awgn.h"
#include "channel/link.h"
#include "core/anc_receiver.h"
#include "core/relay.h"
#include "dsp/ops.h"
#include "net/node.h"
#include "net/packet.h"
#include "util/bits.h"
#include "util/rng.h"

namespace anc {
namespace {

constexpr double snr_db = 25.0;
const double noise_power = chan::noise_power_for_snr_db(snr_db);

struct Collision_setup {
    net::Net_node alice{1};
    net::Net_node bob{3};
    net::Packet pa;
    net::Packet pb;
    dsp::Signal at_alice; // relay broadcast as heard by Alice
};

Collision_setup make_collision(std::uint64_t seed, std::size_t alice_start = 0,
                               std::size_t bob_start = 280)
{
    Pcg32 rng{seed};
    Collision_setup setup;
    net::Flow flow_ab{1, 3, 1024, rng.fork(1)};
    net::Flow flow_ba{3, 1, 1024, rng.fork(2)};
    setup.pa = flow_ab.next();
    setup.pb = flow_ba.next();

    dsp::Signal mix;
    dsp::Signal signal;
    setup.alice.transmit_into(setup.pa, rng, signal);
    chan::Link_channel{{0.95, 0.5, 0, 0.002}}.apply_onto(signal, alice_start, mix);
    setup.bob.transmit_into(setup.pb, rng, signal);
    chan::Link_channel{{0.9, -0.9, 0, -0.002}}.apply_onto(signal, bob_start, mix);
    chan::Awgn relay_noise{noise_power, rng.fork(3)};
    relay_noise.add_in_place(mix);
    dsp::Signal fwd;
    if (!amplify_and_forward_into(mix, noise_power, 1.0, fwd))
        throw std::runtime_error{"relay detected no packet"};
    chan::Link_channel{{0.95, 1.3, 0, 0.0}}.apply_onto(fwd, 0, setup.at_alice);
    chan::Awgn alice_noise{noise_power, rng.fork(4)};
    alice_noise.add_in_place(setup.at_alice);
    return setup;
}

Anc_receiver make_receiver()
{
    return Anc_receiver{Anc_receiver_config{}, noise_power};
}

TEST(FailureInjection, WrongPacketInBufferFailsCleanly)
{
    Collision_setup setup = make_collision(501);
    // Alice's buffer holds a *different* packet than the one on the air.
    Pcg32 rng{502};
    net::Net_node impostor{1};
    net::Flow other{1, 3, 1024, rng};
    const net::Packet stale = other.next();
    net::Packet shifted = stale;
    shifted.seq = 999;
    impostor.remember(shifted);

    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(setup.at_alice, impostor.buffer());
    // Neither header matches the buffer: no decode, but both headers are
    // readable, so the collision is forwardable.
    EXPECT_NE(outcome.status, Receive_status::decoded_interference);
    EXPECT_EQ(outcome.diag.failure, Decode_failure::no_known_header);
}

TEST(FailureInjection, TruncatedReceptionNoCrash)
{
    const Collision_setup setup = make_collision(503);
    const Anc_receiver receiver = make_receiver();
    for (const double keep : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        const dsp::Signal_view truncated = dsp::slice_view(
            setup.at_alice, 0,
            static_cast<std::size_t>(keep * static_cast<double>(setup.at_alice.size())));
        const Receive_outcome outcome = receiver.receive(truncated, setup.alice.buffer());
        // Whatever the status, no fabricated payload of the wrong packet:
        if (outcome.status == Receive_status::decoded_interference) {
            EXPECT_EQ(outcome.frame->header.seq, setup.pb.seq);
        }
    }
}

TEST(FailureInjection, CompleteOverlapNeverDecodesWrongPacket)
{
    // Identical start instants — the case the trigger protocol exists to
    // prevent (§7.2).  Interestingly it is not always fatal: both frames
    // carry the *same* pilot at the same offset, so the superimposed
    // pilots reinforce (two MSK signals with identical phase steps sum to
    // one MSK signal) and alignment comes for free; the stronger header
    // may then capture-decode and the collision resolves.  The property
    // that must hold unconditionally: the receiver never reports the
    // wrong packet or a garbage payload as success.
    const Collision_setup setup = make_collision(504, 200, 200);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(setup.at_alice, setup.alice.buffer());
    if (outcome.status == Receive_status::decoded_interference) {
        EXPECT_EQ(outcome.frame->header.src, setup.pb.src);
        EXPECT_EQ(outcome.frame->header.seq, setup.pb.seq);
        EXPECT_LT(bit_error_rate(outcome.frame->payload, setup.pb.payload), 0.15);
    } else {
        EXPECT_NE(outcome.status, Receive_status::clean);
    }
}

TEST(FailureInjection, EmptyAndTinyStreams)
{
    const Anc_receiver receiver = make_receiver();
    const Sent_packet_buffer empty;
    EXPECT_EQ(receiver.receive(dsp::Signal{}, empty).status, Receive_status::no_packet);
    EXPECT_EQ(receiver.receive(dsp::Signal(3, dsp::Sample{1.0, 0.0}), empty).status,
              Receive_status::no_packet);
}

TEST(FailureInjection, StrongNoiseBurstIsNotAPacket)
{
    // A burst of pure noise 25 dB above the floor trips the energy
    // detector but must not produce a packet.
    Pcg32 rng{505};
    dsp::Signal burst(2000, dsp::Sample{0.0, 0.0});
    chan::Awgn strong{noise_power * 316.0, rng.fork(1)};
    strong.add_in_place(burst);
    const Anc_receiver receiver = make_receiver();
    const Sent_packet_buffer empty;
    const Receive_outcome outcome = receiver.receive(burst, empty);
    EXPECT_NE(outcome.status, Receive_status::clean);
    EXPECT_NE(outcome.status, Receive_status::decoded_interference);
}

TEST(FailureInjection, RelayIgnoresSilence)
{
    Pcg32 rng{506};
    dsp::Signal silence(1000, dsp::Sample{0.0, 0.0});
    chan::Awgn floor{noise_power, rng};
    floor.add_in_place(silence);
    dsp::Signal forwarded;
    EXPECT_FALSE(amplify_and_forward_into(silence, noise_power, 1.0, forwarded));
}

TEST(FailureInjection, DecodedPayloadNeverExceedsHeaderLength)
{
    const Collision_setup setup = make_collision(507);
    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(setup.at_alice, setup.alice.buffer());
    if (outcome.frame) {
        EXPECT_EQ(outcome.frame->payload.size(), outcome.frame->header.payload_bits);
    }
}

TEST(FailureInjection, ReceiverIsConstAndReusable)
{
    // One receiver instance across many different streams: stateless.
    const Anc_receiver receiver = make_receiver();
    for (std::uint64_t seed = 601; seed < 609; ++seed) {
        const Collision_setup setup = make_collision(seed);
        const Receive_outcome outcome =
            receiver.receive(setup.at_alice, setup.alice.buffer());
        if (outcome.status == Receive_status::decoded_interference) {
            EXPECT_EQ(outcome.frame->header.seq, setup.pb.seq);
        }
    }
}

TEST(FailureInjection, TailRecoveryWhenUnknownHeadIsJammed)
{
    // A strong noise burst over the unknown packet's leading pilot and
    // header: the head-side framing fails, but the frame also carries
    // mirrored copies at its tail (§7.4), which sit in the
    // interference-free region — the receiver must recover through them.
    Collision_setup setup = make_collision(520, 0, 280);
    // Bob's head (pilot+header+crc = 160 bits) starts at sample ~280 of
    // the broadcast; jam a window around it.
    Pcg32 rng{521};
    chan::Awgn jam{1.0, rng};
    for (std::size_t i = 280; i < 470 && i < setup.at_alice.size(); ++i)
        setup.at_alice[i] += jam.sample();

    const Anc_receiver receiver = make_receiver();
    const Receive_outcome outcome = receiver.receive(setup.at_alice, setup.alice.buffer());
    ASSERT_EQ(outcome.status, Receive_status::decoded_interference);
    EXPECT_EQ(outcome.frame->header.seq, setup.pb.seq);
    // The jammed stretch corrupts some payload bits but the bulk decodes.
    EXPECT_LT(bit_error_rate(outcome.frame->payload, setup.pb.payload), 0.25);
}

TEST(FailureInjection, MismatchedNoiseFloorDegradesButNoCrash)
{
    // The receiver's noise-floor estimate is 10 dB off: detection
    // thresholds shift but nothing crashes.
    const Collision_setup setup = make_collision(510);
    const Anc_receiver optimistic{Anc_receiver_config{}, noise_power / 10.0};
    const Anc_receiver pessimistic{Anc_receiver_config{}, noise_power * 10.0};
    EXPECT_NO_THROW({
        (void)optimistic.receive(setup.at_alice, setup.alice.buffer());
        (void)pessimistic.receive(setup.at_alice, setup.alice.buffer());
    });
}

} // namespace
} // namespace anc
