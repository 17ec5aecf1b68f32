// Alice–Bob (Fig. 1, §11.4) and X (Fig. 11, §11.5) as one schedule: two
// flows crossing at a relay.  Flow a runs a.src -> relay -> a.dst, flow b
// b.src -> relay -> b.dst.  Each destination must know the other flow's
// packet to decode the relay's coded (COPE) or interfered (ANC) round.
// In Alice–Bob it does by having sent it (a.dst == b.src); in X it must
// overhear it, on a clean upload (COPE) or under interference (ANC).

#include <cstdint>
#include <optional>

#include "core/anc_receiver.h"
#include "net/cope.h"
#include "sim/alice_bob.h"
#include "sim/rounds.h"
#include "sim/x_topology.h"

namespace anc::sim {

namespace {

struct Crossing_nodes {
    chan::Node_id a_src;
    chan::Node_id a_dst;
    chan::Node_id b_src;
    chan::Node_id b_dst;
    chan::Node_id relay;
};

struct Crossing_result {
    Run_metrics metrics;
    Cdf ber_at_a_dst; // flow a's packets, decoded at a.dst
    Cdf ber_at_b_dst;
    Cdf fade_magnitude;
    std::size_t overhear_attempts = 0;
    std::size_t overhear_failures = 0;
};

/// A receiver for snooping the clean (from -> to) link: the Medium's
/// per-link AGC detection threshold (installed on X's overhear links)
/// replaces the standard carrier-sense threshold; a link without an
/// override keeps the receiver's default.
Anc_receiver snoop_receiver_for(const World& world, const Run_config& config,
                                chan::Node_id from, chan::Node_id to)
{
    Anc_receiver_config snoop_config{.interference_detector = {config.detector_threshold_db}};
    if (const auto threshold_db = world.medium.detection_threshold_db(from, to))
        snoop_config.packet_detector.energy_threshold_db = *threshold_db;
    return Anc_receiver{snoop_config, world.noise_power, config.math_profile};
}

/// One run of the schedule: the world, both flows, and the result.
struct Crossing {
    Crossing(const Run_config& config, const Crossing_nodes& at, World built)
        : config{config},
          at{at},
          overhearing{at.a_dst != at.b_src},
          world{std::move(built)},
          flow_a{static_cast<std::uint8_t>(at.a_src), static_cast<std::uint8_t>(at.a_dst),
                 config.payload_bits, world.rng.fork(10)},
          flow_b{static_cast<std::uint8_t>(at.b_src), static_cast<std::uint8_t>(at.b_dst),
                 config.payload_bits, world.rng.fork(11)}
    {
        if (overhearing) {
            snoop_at_b_dst = snoop_receiver_for(world, config, at.a_src, at.b_dst);
            snoop_at_a_dst = snoop_receiver_for(world, config, at.b_src, at.a_dst);
        }
    }

    const Run_config& config;
    Crossing_nodes at;
    bool overhearing;
    World world;
    net::Flow flow_a;
    net::Flow flow_b;
    std::optional<Anc_receiver> snoop_at_a_dst; // clean overhears (X only)
    std::optional<Anc_receiver> snoop_at_b_dst;
    Crossing_result result;

    /// Close the run: fold the recorded fades into the result.
    Crossing_result finish()
    {
        result.fade_magnitude.add_all(world.fade_magnitudes);
        return std::move(result);
    }
};

/// Traditional routing: each packet takes two clean hops, 4 slots per pair.
Crossing_result traditional(Crossing x)
{
    const auto route = [&x](net::Flow& flow, chan::Node_id src, chan::Node_id dst,
                            Cdf& side_ber) {
        const net::Packet packet = flow.next();
        ++x.result.metrics.packets_attempted;
        const auto at_dst =
            forward_along(x.world, {src, x.at.relay, dst}, packet, x.result.metrics);
        if (at_dst && identity_matches(at_dst->header, packet))
            record_delivery(x.result.metrics, at_dst->payload, packet.payload, &side_ber);
    };
    for (std::size_t i = 0; i < x.config.exchanges; ++i) {
        x.world.medium.set_fading_epoch(i); // fresh fade per exchange, shared across schemes
        route(x.flow_a, x.at.a_src, x.at.a_dst, x.result.ber_at_a_dst);
        route(x.flow_b, x.at.b_src, x.at.b_dst, x.result.ber_at_b_dst);
    }
    return x.finish();
}

/// A COPE upload: a clean hop to the relay.  Under X, `overhearer` snoops
/// it through the weak overhear link with its snoop receiver's lower
/// detection threshold; `overheard` gets the packet if that decodes.
std::optional<phy::Received_frame> upload(Crossing& x, chan::Node_id from,
                                          const net::Packet& packet, chan::Node_id overhearer,
                                          const std::optional<Anc_receiver>& snoop,
                                          std::optional<net::Packet>& overheard)
{
    if (!x.overhearing)
        return clean_hop(x.world, from, x.at.relay, packet, x.result.metrics);
    const Signal_lease heard = dsp::Workspace::current().signal();
    auto at_relay = clean_hop(x.world, from, x.at.relay, packet, x.result.metrics,
                              &*heard, overhearer);
    ++x.result.overhear_attempts;
    const Receive_outcome outcome = snoop->receive(*heard, empty_sent_packet_buffer());
    if (outcome.status == Receive_status::clean)
        overheard = packet_from_frame(*outcome.frame);
    else
        ++x.result.overhear_failures;
    return at_relay;
}

/// `at` decodes the XOR broadcast by cancelling the packet it knows; with
/// nothing known (a missed overhear) it does not listen at all.
void decode_cope(Crossing& x, const Broadcast& broadcast, chan::Node_id at,
                 const net::Packet* known, const net::Packet& wanted, Cdf& side_ber)
{
    if (!known)
        return;
    const Signal_lease received = hear(x.world, at, broadcast.on_air());
    const Receive_outcome outcome =
        x.world.receiver.receive(*received, empty_sent_packet_buffer());
    if (outcome.status != Receive_status::clean)
        return;
    const auto parsed = net::cope_parse(outcome.frame->payload);
    if (!parsed)
        return;
    const auto other = net::cope_decode(*parsed, net::header_for(*known), known->payload);
    if (!other || !identity_matches(net::header_for(*other), wanted))
        return;
    record_delivery(x.result.metrics, other->payload, wanted.payload, &side_ber);
}

/// COPE: two clean uploads, one XOR broadcast — 3 slots per pair.
Crossing_result cope(Crossing x)
{
    const chan::Node_id destinations[] = {x.at.b_dst, x.at.a_dst};
    // X-COPE has never recorded its broadcast's fades (ROADMAP: fixing it
    // changes the x_topology_fading digests).
    const std::span<const chan::Node_id> faded{destinations, x.overhearing ? 0u : 2u};
    std::uint16_t coded_seq = 1;
    for (std::size_t i = 0; i < x.config.exchanges; ++i) {
        x.world.medium.set_fading_epoch(i); // fresh fade per exchange, shared across schemes
        const net::Packet pa = x.flow_a.next();
        const net::Packet pb = x.flow_b.next();
        x.result.metrics.packets_attempted += 2;

        std::optional<net::Packet> pa_overheard;
        std::optional<net::Packet> pb_overheard;
        const auto pa_at_relay =
            upload(x, x.at.a_src, pa, x.at.b_dst, x.snoop_at_b_dst, pa_overheard);
        const auto pb_at_relay =
            upload(x, x.at.b_src, pb, x.at.a_dst, x.snoop_at_a_dst, pb_overheard);
        if (!pa_at_relay || !pb_at_relay)
            continue; // an upload failed; the coded broadcast is pointless

        const Broadcast coded = cope_broadcast(x.world, x.at.relay, coded_seq++,
                                               *pa_at_relay, *pb_at_relay, faded,
                                               x.result.metrics);
        const auto known = [&x](const net::Packet& sent,
                                const std::optional<net::Packet>& overheard) {
            return x.overhearing ? (overheard ? &*overheard : nullptr) : &sent;
        };
        decode_cope(x, coded, x.at.b_dst, known(pa, pa_overheard), pb, x.result.ber_at_b_dst);
        decode_cope(x, coded, x.at.a_dst, known(pb, pb_overheard), pa, x.result.ber_at_a_dst);
    }
    return x.finish();
}

/// Under X, `at` snoops the collision itself to learn `expected` (a
/// capture decode, §11.5).  Snooping *under interference* keeps the
/// standard detector: lowering the threshold here would pull the weak
/// cross-link signal into the detection window and break the capture
/// decode — failures at the bottom of the band are the §11.5 behavior,
/// not the detector bug the snoop receiver fixes.
void snoop(Crossing& x, const Collision& uploads, chan::Node_id at,
           const net::Packet& expected)
{
    ++x.result.overhear_attempts;
    const Signal_lease heard = hear(x.world, at, uploads.on_air());
    const Receive_outcome outcome =
        x.world.receiver.receive(*heard, empty_sent_packet_buffer());
    if (outcome.status == Receive_status::clean
        && identity_matches(outcome.frame->header, expected)) {
        x.world.node(at).remember(packet_from_frame(*outcome.frame));
    } else {
        ++x.result.overhear_failures;
    }
}

/// `at` decodes the forwarded collision by cancelling the packet in its
/// buffer (sent, or overheard under X).
void decode_anc(Crossing& x, const Broadcast& forward, chan::Node_id at,
                const net::Packet& wanted, Cdf& side_ber)
{
    const Signal_lease received = hear(x.world, at, forward.on_air());
    const Receive_outcome outcome =
        x.world.receiver.receive(*received, x.world.node(at).buffer());
    if (outcome.status != Receive_status::decoded_interference
        || !identity_matches(outcome.frame->header, wanted))
        return;
    record_delivery(x.result.metrics, outcome.frame->payload, wanted.payload, &side_ber);
}

/// ANC: a deliberate collision at the relay, then amplify-and-forward —
/// 2 slots per pair.
Crossing_result anc(Crossing x)
{
    const chan::Node_id destinations[] = {x.at.b_dst, x.at.a_dst};
    for (std::size_t i = 0; i < x.config.exchanges; ++i) {
        x.world.medium.set_fading_epoch(i); // fresh fade per exchange, shared across schemes
        const net::Packet pa = x.flow_a.next();
        const net::Packet pb = x.flow_b.next();
        x.result.metrics.packets_attempted += 2;

        const Collision uploads =
            collide(x.world, {x.at.a_src, x.at.relay, &pa}, {x.at.b_src, x.at.relay, &pb},
                    x.result.metrics);
        const Signal_lease at_relay = hear(x.world, x.at.relay, uploads.on_air());
        if (x.overhearing) {
            snoop(x, uploads, x.at.b_dst, pa);
            snoop(x, uploads, x.at.a_dst, pb);
        }
        const auto forward =
            relay_broadcast(x.world, x.at.relay, *at_relay, destinations, x.result.metrics);
        if (!forward)
            continue;
        decode_anc(x, *forward, x.at.b_dst, pb, x.result.ber_at_b_dst);
        decode_anc(x, *forward, x.at.a_dst, pa, x.result.ber_at_a_dst);
    }
    return x.finish();
}

Crossing alice_bob(const Alice_bob_config& config)
{
    constexpr const net::Alice_bob_nodes& n = net::alice_bob_nodes;
    return Crossing{config,
                    {n.alice, n.bob, n.bob, n.alice, n.router},
                    make_world(config, 0x0a11ce0bu,
                               {{n.alice, config.alice_amplitude},
                                {n.router},
                                {n.bob, config.bob_amplitude}},
                               [&config](chan::Medium& medium, Pcg32& rng) {
                                   net::install_alice_bob(medium, config.gains, config.fading,
                                                          rng);
                               })};
}

Alice_bob_result alice_bob_result(Crossing_result r)
{
    return {std::move(r.metrics), std::move(r.ber_at_b_dst), std::move(r.ber_at_a_dst),
            std::move(r.fade_magnitude)};
}

Crossing x_topology(const X_config& config)
{
    constexpr const net::X_nodes& n = net::x_nodes;
    return Crossing{config,
                    {n.n1, n.n4, n.n3, n.n2, n.n5},
                    make_world(config, 0x0f2a9u, {{n.n1}, {n.n2}, {n.n3}, {n.n4}, {n.n5}},
                               [&config](chan::Medium& medium, Pcg32& rng) {
                                   net::install_x(medium, config.gains, config.fading, rng);
                               })};
}

X_result x_result(Crossing_result r)
{
    return {std::move(r.metrics),        std::move(r.ber_at_b_dst),
            std::move(r.ber_at_a_dst),   std::move(r.fade_magnitude),
            r.overhear_attempts,         r.overhear_failures};
}

} // namespace

Alice_bob_result run_alice_bob_traditional(const Alice_bob_config& config)
{
    return alice_bob_result(traditional(alice_bob(config)));
}

Alice_bob_result run_alice_bob_cope(const Alice_bob_config& config)
{
    return alice_bob_result(cope(alice_bob(config)));
}

Alice_bob_result run_alice_bob_anc(const Alice_bob_config& config)
{
    return alice_bob_result(anc(alice_bob(config)));
}

X_result run_x_traditional(const X_config& config)
{
    return x_result(traditional(x_topology(config)));
}

X_result run_x_cope(const X_config& config)
{
    return x_result(cope(x_topology(config)));
}

X_result run_x_anc(const X_config& config)
{
    return x_result(anc(x_topology(config)));
}

} // namespace anc::sim
