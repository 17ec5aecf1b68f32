// Quickstart: one Alice-Bob exchange with analog network coding.
//
// Two nodes that cannot hear each other exchange packets through a relay
// in two time slots instead of four: they transmit *simultaneously*, the
// relay amplifies and re-broadcasts the collision, and each side cancels
// its own signal to decode the other's packet.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "channel/medium.h"
#include "core/anc_receiver.h"
#include "core/relay.h"
#include "core/trigger.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/topology.h"
#include "util/bits.h"

int main()
{
    using namespace anc;

    // --- A wireless world: Alice <-> Router <-> Bob at 25 dB SNR ----
    const double noise_power = chan::noise_power_for_snr_db(25.0);
    Pcg32 rng{7};
    chan::Medium medium{noise_power, rng.fork(1)};
    Pcg32 link_rng = rng.fork(2);
    const net::Alice_bob_nodes nodes;
    install_alice_bob(medium, nodes, net::Alice_bob_gains{}, {}, link_rng);

    net::Net_node alice{nodes.alice};
    net::Net_node bob{nodes.bob};

    // --- Each side has a packet for the other -----------------------
    Pcg32 traffic = rng.fork(3);
    net::Flow alice_to_bob{1, 3, 1024, traffic.fork(1)};
    net::Flow bob_to_alice{3, 1, 1024, traffic.fork(2)};
    const net::Packet pa = alice_to_bob.next();
    const net::Packet pb = bob_to_alice.next();

    // --- Slot 1: both transmit at once (trigger jitter keeps the ----
    //     overlap incomplete so the pilots stay interference-free)
    const auto [delay_a, delay_b] = draw_distinct_delays(Trigger_config{}, rng);
    dsp::Signal signal_a;
    dsp::Signal signal_b;
    alice.transmit_into(pa, rng, signal_a);
    bob.transmit_into(pb, rng, signal_b);
    const chan::Transmission round1[] = {{alice.id(), signal_a, delay_a},
                                         {bob.id(), signal_b, delay_b}};
    dsp::Signal at_router;
    medium.receive_into(nodes.router, round1, 64, at_router);
    std::printf("slot 1: Alice and Bob collide at the router "
                "(offsets %zu and %zu symbols)\n", delay_a, delay_b);

    // --- Slot 2: the router amplifies and forwards the raw signal ---
    dsp::Signal broadcast;
    if (!amplify_and_forward_into(at_router, noise_power, 1.0, broadcast)) {
        std::printf("relay detected nothing!\n");
        return 1;
    }
    const chan::Transmission round2[] = {{nodes.router, broadcast, 0}};
    std::printf("slot 2: router re-broadcasts the interfered signal "
                "(%zu samples)\n", broadcast.size());

    // --- Each side cancels its own half and decodes the other's -----
    const Anc_receiver receiver{Anc_receiver_config{}, noise_power};
    dsp::Signal at_alice;
    dsp::Signal at_bob;
    medium.receive_into(alice.id(), round2, 64, at_alice);
    medium.receive_into(bob.id(), round2, 64, at_bob);

    const Receive_outcome alice_out = receiver.receive(at_alice, alice.buffer());
    const Receive_outcome bob_out = receiver.receive(at_bob, bob.buffer());

    if (alice_out.status == Receive_status::decoded_interference) {
        std::printf("Alice decoded Bob's packet seq=%u, BER %.4f (%s)\n",
                    alice_out.frame->header.seq,
                    bit_error_rate(alice_out.frame->payload, pb.payload),
                    alice_out.diag.backward ? "backward" : "forward");
    }
    if (bob_out.status == Receive_status::decoded_interference) {
        std::printf("Bob decoded Alice's packet seq=%u, BER %.4f (%s)\n",
                    bob_out.frame->header.seq,
                    bit_error_rate(bob_out.frame->payload, pa.payload),
                    bob_out.diag.backward ? "backward" : "forward");
    }
    std::printf("two packets exchanged in 2 slots instead of 4.\n");
    return 0;
}
