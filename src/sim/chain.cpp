#include "sim/chain.h"

#include <optional>

#include "core/anc_receiver.h"
#include "sim/rounds.h"
#include "util/bits.h"

namespace anc::sim {

namespace {

World make_chain_world(const Chain_config& config)
{
    const net::Chain_nodes& n = config.nodes;
    return make_world(config, 0xc4a17u, {{n.n1}, {n.n2}, {n.n3}, {n.n4}},
                      [&config](chan::Medium& medium, Pcg32& rng) {
                          net::install_chain(medium, config.nodes, config.gains,
                                             config.fading, rng);
                      });
}

net::Flow chain_flow(const Chain_config& config, World& world)
{
    return net::Flow{static_cast<std::uint8_t>(config.nodes.n1),
                     static_cast<std::uint8_t>(config.nodes.n4), config.payload_bits,
                     world.rng.fork(10)};
}

} // namespace

Chain_result run_chain_traditional(const Chain_config& config)
{
    World world = make_chain_world(config);
    net::Flow flow = chain_flow(config, world);
    const net::Chain_nodes& n = config.nodes;
    Chain_result result;
    for (std::size_t i = 0; i < config.exchanges; ++i) {
        world.medium.set_fading_epoch(i); // fresh fade per packet
        const net::Packet packet = flow.next();
        ++result.metrics.packets_attempted;
        if (const auto at_n4 =
                forward_along(world, {n.n1, n.n2, n.n3, n.n4}, packet, result.metrics))
            record_delivery(result.metrics, at_n4->payload, packet.payload);
    }
    return result;
}

Chain_result run_chain_anc(const Chain_config& config)
{
    World world = make_chain_world(config);
    net::Flow flow = chain_flow(config, world);
    const net::Chain_nodes& n = config.nodes;
    Chain_result result;

    /// The packet N2 holds (as received — bit errors propagate) and the
    /// payload N1 sent, which its end-to-end delivery is scored against.
    struct Held {
        net::Packet packet;
        Bits sent;
    };
    std::optional<Held> held;
    std::size_t produced = 0;
    const auto next_packet = [&]() {
        ++produced;
        ++result.metrics.packets_attempted;
        return flow.next();
    };

    std::uint64_t round = 0;
    while (produced < config.exchanges || held) {
        // The pipeline has no 1:1 exchange index; each loop iteration is
        // one logical round, so fades refresh per round.
        world.medium.set_fading_epoch(round++);
        if (!held) {
            // Pipeline bootstrap (or restart after a loss): a clean
            // N1 -> N2 hop.
            net::Packet packet = next_packet();
            if (const auto at_n2 = clean_hop(world, n.n1, n.n2, packet, result.metrics))
                held = Held{packet_from_frame(*at_n2), std::move(packet.payload)};
            continue;
        }

        // Slot A: N2 forwards its held packet to N3 (clean); this
        // transmission carries the trigger for N1 and N3 (§7.6).
        const Held current = std::move(*held);
        held.reset();
        const auto at_n3 = clean_hop(world, n.n2, n.n3, current.packet, result.metrics);

        // Slot B: N1 sends the next packet while N3 forwards `current` to
        // N4 — simultaneously, with distinct trigger slots (drawn even
        // when only one of them sends).
        std::optional<net::Packet> next;
        if (produced < config.exchanges)
            next = next_packet();
        std::optional<net::Packet> forwarded;
        if (at_n3)
            forwarded = packet_from_frame(*at_n3);
        const Collision slot_b =
            collide(world, config.trigger, {n.n1, n.n2, next ? &*next : nullptr},
                    {n.n3, n.n4, forwarded ? &*forwarded : nullptr}, result.metrics);

        // N4 hears only N3 (N1 is out of range) and decodes `current`.
        if (at_n3) {
            const Signal_lease at_n4 = hear(world, n.n4, slot_b.on_air());
            const Receive_outcome outcome =
                world.receiver.receive(*at_n4, empty_sent_packet_buffer());
            if (outcome.status == Receive_status::clean)
                record_delivery(result.metrics, outcome.frame->payload, current.sent);
        }

        // N2 hears the collision; N3's half is known (N2 sent it in slot
        // A), so N2 decodes N1's new packet out of the interference.
        if (next) {
            const Signal_lease at_n2 = hear(world, n.n2, slot_b.on_air());
            const Receive_outcome outcome =
                world.receiver.receive(*at_n2, world.node(n.n2).buffer());
            const bool decoded =
                (outcome.status == Receive_status::decoded_interference
                 || outcome.status == Receive_status::clean)
                && outcome.frame && outcome.frame->header.seq == next->seq;
            if (decoded) {
                if (outcome.status == Receive_status::decoded_interference) {
                    result.ber_at_n2.add(
                        bit_error_rate(outcome.frame->payload, next->payload));
                }
                held = Held{packet_from_frame(*outcome.frame), std::move(next->payload)};
            }
            // else: the new packet is lost; the pipeline restarts.
        }
    }
    return result;
}

} // namespace anc::sim
