#include "sim/rounds.h"

#include <algorithm>

#include "channel/awgn.h"
#include "core/relay.h"
#include "net/cope.h"
#include "util/bits.h"

namespace anc::sim {

namespace {

constexpr std::size_t rx_guard = 64; // trailing noise so detectors see the edge

} // namespace

net::Net_node& World::node(chan::Node_id id)
{
    return *std::find_if(nodes.begin(), nodes.end(),
                         [id](const net::Net_node& node) { return node.id() == id; });
}

World make_world(const Run_config& config, std::uint64_t stream,
                 std::initializer_list<Node_spec> nodes, const Link_installer& install)
{
    Pcg32 rng{config.seed, stream};
    const double noise_power = chan::noise_power_for_snr_db(config.snr_db);
    chan::Medium medium{noise_power, rng.fork(1), config.math_profile};
    Pcg32 link_rng = rng.fork(2);
    install(medium, link_rng);

    std::vector<net::Net_node> built;
    built.reserve(nodes.size());
    for (const Node_spec& spec : nodes) {
        phy::Modem_config modem;
        modem.amplitude = spec.amplitude;
        modem.math_profile = config.math_profile;
        built.emplace_back(spec.id, modem);
    }
    return World{std::move(medium),
                 std::move(built),
                 Anc_receiver{config.receiver, noise_power, config.math_profile},
                 noise_power,
                 rng.fork(3),
                 {}};
}

Signal_lease hear(World& world, chan::Node_id at, std::span<const chan::Transmission> on_air)
{
    Signal_lease received = dsp::Workspace::current().signal();
    world.medium.receive_into(at, on_air, rx_guard, *received);
    return received;
}

std::optional<phy::Received_frame> clean_hop(World& world, chan::Node_id from,
                                             chan::Node_id to, const net::Packet& packet,
                                             Run_metrics& metrics, dsp::Signal* overheard,
                                             chan::Node_id overhearer)
{
    const Signal_lease signal = dsp::Workspace::current().signal();
    world.node(from).transmit_into(packet, world.rng, *signal);
    const chan::Transmission on_air[] = {{from, *signal, 0}};
    metrics.airtime_symbols += static_cast<double>(signal->size());
    world.medium.append_fade_magnitudes(from, to, signal->size(), world.fade_magnitudes);
    if (overheard)
        world.medium.receive_into(overhearer, on_air, rx_guard, *overheard);
    const Signal_lease received = hear(world, to, on_air);
    Receive_outcome outcome = world.receiver.receive(*received, empty_sent_packet_buffer());
    if (outcome.status != Receive_status::clean)
        return std::nullopt;
    return std::move(outcome.frame);
}

std::optional<phy::Received_frame> forward_along(World& world,
                                                 std::initializer_list<chan::Node_id> path,
                                                 const net::Packet& packet,
                                                 Run_metrics& metrics)
{
    const chan::Node_id* hop = path.begin();
    std::optional<phy::Received_frame> frame =
        clean_hop(world, hop[0], hop[1], packet, metrics);
    for (++hop; frame && hop + 1 != path.end(); ++hop)
        frame = clean_hop(world, hop[0], hop[1], packet_from_frame(*frame), metrics);
    return frame;
}

Collision collide(World& world, const Trigger_config& trigger, const Sender& first,
                  const Sender& second, Run_metrics& metrics)
{
    const auto [delay_first, delay_second] = draw_distinct_delays(trigger, world.rng);
    dsp::Workspace& workspace = dsp::Workspace::current();
    Collision collision{{workspace.signal(), workspace.signal()}, {}, 0};
    const auto send = [&](const Sender& sender, std::size_t delay) {
        if (!sender.packet)
            return;
        dsp::Signal& signal = *collision.signals[collision.size];
        world.node(sender.from).transmit_into(*sender.packet, world.rng, signal);
        world.medium.append_fade_magnitudes(sender.from, sender.to, signal.size(),
                                            world.fade_magnitudes);
        collision.txs[collision.size++] = {sender.from, signal, delay};
    };
    send(first, delay_first);
    send(second, delay_second);

    const std::span<const chan::Transmission> on_air = collision.on_air();
    if (on_air.empty())
        return collision;
    std::size_t span_begin = on_air.front().start;
    std::size_t span_end = 0;
    for (const auto& tx : on_air) {
        span_begin = std::min(span_begin, tx.start);
        span_end = std::max(span_end, tx.start + tx.signal.size());
    }
    metrics.airtime_symbols += static_cast<double>(span_end - span_begin);
    if (on_air.size() == 2) {
        metrics.overlaps.add(overlap_fraction(on_air[0].start, on_air[0].signal.size(),
                                              on_air[1].start, on_air[1].signal.size()));
    }
    return collision;
}

namespace {

/// Charge one broadcast's airtime and record the fades toward its listeners.
void charge_broadcast(World& world, chan::Node_id from, std::size_t samples,
                      std::span<const chan::Node_id> listeners, Run_metrics& metrics)
{
    metrics.airtime_symbols += static_cast<double>(samples);
    for (const chan::Node_id to : listeners)
        world.medium.append_fade_magnitudes(from, to, samples, world.fade_magnitudes);
}

} // namespace

std::optional<Broadcast> relay_broadcast(World& world, chan::Node_id relay,
                                         const dsp::Signal& heard,
                                         std::span<const chan::Node_id> listeners,
                                         Run_metrics& metrics)
{
    Broadcast forward{dsp::Workspace::current().signal(), {}};
    if (!amplify_and_forward_into(heard, world.noise_power, 1.0, *forward.signal))
        return std::nullopt;
    forward.tx = {relay, *forward.signal, 0};
    charge_broadcast(world, relay, forward.signal->size(), listeners, metrics);
    return forward;
}

Broadcast cope_broadcast(World& world, chan::Node_id relay, std::uint16_t seq,
                         const phy::Received_frame& a, const phy::Received_frame& b,
                         std::span<const chan::Node_id> listeners, Run_metrics& metrics)
{
    net::Packet coded;
    coded.src = static_cast<std::uint8_t>(relay);
    coded.dst = 0xff;
    coded.seq = seq;
    coded.payload = net::cope_encode(packet_from_frame(a), packet_from_frame(b));

    Broadcast broadcast{dsp::Workspace::current().signal(), {}};
    world.node(relay).transmit_into(coded, world.rng, *broadcast.signal);
    broadcast.tx = {relay, *broadcast.signal, 0};
    charge_broadcast(world, relay, broadcast.signal->size(), listeners, metrics);
    return broadcast;
}

net::Packet packet_from_frame(const phy::Received_frame& frame)
{
    net::Packet packet;
    packet.src = frame.header.src;
    packet.dst = frame.header.dst;
    packet.seq = frame.header.seq;
    packet.payload = frame.payload;
    return packet;
}

bool identity_matches(const phy::Frame_header& header, const net::Packet& packet)
{
    return header.src == packet.src && header.dst == packet.dst && header.seq == packet.seq;
}

void record_delivery(Run_metrics& metrics, const Bits& decoded, const Bits& sent,
                     Cdf* side_ber)
{
    const double ber = bit_error_rate(decoded, sent);
    ++metrics.packets_delivered;
    metrics.payload_bits_delivered += sent.size();
    metrics.packet_ber.add(ber);
    if (side_ber)
        side_ber->add(ber);
}

} // namespace anc::sim
