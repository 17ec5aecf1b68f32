// FEC-protected exchange: run application data through the
// Hamming(7,4)+interleaver codec, across an ANC collision, and back —
// demonstrating that the "extra redundancy" the paper budgets for
// (§11.2) really turns a few-percent-BER channel into a clean one.

#include <cstdio>

#include "channel/medium.h"
#include "core/anc_receiver.h"
#include "core/relay.h"
#include "core/trigger.h"
#include "fec/codec.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/topology.h"
#include "util/bits.h"

int main()
{
    using namespace anc;

    // A noisier world than quickstart's: 20 dB, where ANC decodes carry
    // visible bit errors.
    const double noise_power = chan::noise_power_for_snr_db(20.0);
    Pcg32 rng{11};
    chan::Medium medium{noise_power, rng.fork(1)};
    Pcg32 link_rng = rng.fork(2);
    const net::Alice_bob_nodes& nodes = net::alice_bob_nodes;
    install_alice_bob(medium, net::Alice_bob_gains{}, {}, link_rng);
    net::Net_node alice{nodes.alice};
    net::Net_node bob{nodes.bob};
    const Anc_receiver receiver{Anc_receiver_config{}, noise_power};

    const fec::Fec_codec codec{64};
    const std::size_t data_bits = 1170;

    std::size_t raw_errors = 0;
    std::size_t corrected_errors = 0;
    std::size_t decoded_packets = 0;
    const std::size_t rounds = 12;

    Pcg32 traffic = rng.fork(3);
    dsp::Signal signal_a;
    dsp::Signal signal_b;
    dsp::Signal at_router;
    dsp::Signal fwd;
    dsp::Signal at_alice;
    for (std::size_t i = 0; i < rounds; ++i) {
        // Bob's application data, FEC-encoded into the packet payload.
        const Bits data = random_bits(data_bits, traffic);
        net::Packet pb;
        pb.src = 3;
        pb.dst = 1;
        pb.seq = static_cast<std::uint16_t>(i + 1);
        pb.payload = codec.encode(data);

        net::Packet pa;
        pa.src = 1;
        pa.dst = 3;
        pa.seq = static_cast<std::uint16_t>(i + 1);
        pa.payload = random_bits(pb.payload.size(), traffic);

        const auto [da, db] = draw_distinct_delays(rng);
        alice.transmit_into(pa, rng, signal_a);
        bob.transmit_into(pb, rng, signal_b);
        const chan::Transmission round1[] = {{alice.id(), signal_a, da},
                                             {bob.id(), signal_b, db}};
        medium.receive_into(nodes.router, round1, 64, at_router);
        if (!amplify_and_forward_into(at_router, noise_power, 1.0, fwd))
            continue;
        const chan::Transmission round2[] = {{nodes.router, fwd, 0}};
        medium.receive_into(alice.id(), round2, 64, at_alice);
        const auto outcome = receiver.receive(at_alice, alice.buffer());
        if (outcome.status != Receive_status::decoded_interference)
            continue;

        ++decoded_packets;
        raw_errors += hamming_distance(outcome.frame->payload, pb.payload);
        const Bits recovered = codec.decode(outcome.frame->payload, data_bits);
        corrected_errors += hamming_distance(recovered, data);
    }

    std::printf("ANC at 20 dB SNR, %zu collisions, %zu decoded\n", rounds, decoded_packets);
    std::printf("on-air payload bit errors (pre-FEC):  %zu\n", raw_errors);
    std::printf("application data bit errors (post-FEC): %zu\n", corrected_errors);
    std::printf("rate-4/7 Hamming + 64x7 interleaver absorbed the interference-decoding\n"
                "residue — the redundancy the paper's throughput accounting charges.\n");
    return 0;
}
