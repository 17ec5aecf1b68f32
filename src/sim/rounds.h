// The rounds every topology schedule is built from (sim/crossing.cpp for
// Alice–Bob and X, sim/chain.cpp for the chain): a clean hop, a triggered
// collision (§7.6), the relay's amplify-and-forward broadcast (§7.5) and
// COPE's XOR broadcast, all over one World.  Internal to src/sim: callers
// outside it use the sim::run_* runners.
//
// Byte identity with the historical runs rests on call order:
// Medium::receive_into forks the medium RNG on every call, and transmits
// and trigger delays draw from World::rng, so a schedule must receive,
// transmit and draw in the order its comments state.

#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "channel/medium.h"
#include "core/anc_receiver.h"
#include "dsp/workspace.h"
#include "net/node.h"
#include "net/packet.h"
#include "phy/modem.h"
#include "sim/metrics.h"
#include "sim/run_config.h"
#include "util/stats.h"

namespace anc::sim {

using Signal_lease = dsp::Workspace::Lease<dsp::Sample>;

/// One row of a topology's node table.
struct Node_spec {
    chan::Node_id id;
    double amplitude = 1.0; // transmit amplitude
};

/// What one run shares: the medium with the topology's links, the nodes,
/// the receiver every node decodes with, and the run RNG (transmit
/// phases, trigger delays, flow payloads).
struct World {
    chan::Medium medium;
    std::vector<net::Net_node> nodes;
    Anc_receiver receiver;
    double noise_power;
    Pcg32 rng;
    /// |h| per coherence block of every recorded hop (fading runs only).
    std::vector<double> fade_magnitudes;

    net::Net_node& node(chan::Node_id id);
};

/// Installs a topology's links on the medium, drawing from the link RNG.
using Link_installer = std::function<void(chan::Medium&, Pcg32&)>;

/// Build a run's world.  `stream` is the topology's RNG stream constant:
/// the run RNG Pcg32{config.seed, stream} is forked for the medium noise
/// (1), the links (2) and World::rng (3), in that order.
World make_world(const Run_config& config, std::uint64_t stream,
                 std::initializer_list<Node_spec> nodes, const Link_installer& install);

/// What `at` receives of a round's transmissions, plus trailing noise so
/// detectors see the edge.
Signal_lease hear(World& world, chan::Node_id at,
                  std::span<const chan::Transmission> on_air);

/// One collision-free transmission from `from` to `to`, charged its
/// airtime whatever the outcome; returns the frame if `to` decodes it
/// cleanly.  With `overheard`, `overhearer` receives the same
/// transmission into it first.
std::optional<phy::Received_frame> clean_hop(World& world, chan::Node_id from,
                                             chan::Node_id to, const net::Packet& packet,
                                             Run_metrics& metrics,
                                             dsp::Signal* overheard = nullptr,
                                             chan::Node_id overhearer = 0);

/// Store-and-forward along `path` by clean hops; each hop sends the frame
/// the previous hop decoded, so bit errors propagate.  Returns the frame
/// at the end of the path, or nothing if a hop lost it.
std::optional<phy::Received_frame> forward_along(World& world,
                                                 std::initializer_list<chan::Node_id> path,
                                                 const net::Packet& packet,
                                                 Run_metrics& metrics);

/// A transmitter of a collision round: `from` sends `packet` toward `to`;
/// a null `packet` stays silent.
struct Sender {
    chan::Node_id from;
    chan::Node_id to;
    const net::Packet* packet;
};

/// A collision round's transmissions and the leased buffers behind them.
struct Collision {
    Signal_lease signals[2];
    chan::Transmission txs[2];
    std::size_t size = 0;

    std::span<const chan::Transmission> on_air() const { return {txs, size}; }
};

/// A triggered collision (§7.6): draws two distinct trigger delays, then
/// each present sender transmits at its delay.  Charges the round's span
/// of airtime, the overlap when both send, and the fades of each sender's
/// link toward its `to`.
Collision collide(World& world, const Trigger_config& trigger, const Sender& first,
                  const Sender& second, Run_metrics& metrics);

/// One broadcast and the leased buffer behind it.
struct Broadcast {
    Signal_lease signal;
    chan::Transmission tx;

    std::span<const chan::Transmission> on_air() const { return {&tx, 1}; }
};

/// ANC's second round (§7.5): `relay` amplifies what it heard — the raw
/// interfered signal, undecoded — and broadcasts it.  Charges the airtime
/// and records the fades toward `listeners`.  Nothing is sent if the relay
/// detected no packet.
std::optional<Broadcast> relay_broadcast(World& world, chan::Node_id relay,
                                         const dsp::Signal& heard,
                                         std::span<const chan::Node_id> listeners,
                                         Run_metrics& metrics);

/// COPE's coded round: `relay` broadcasts the XOR of the two frames it
/// received as packet `seq`.  Charges the airtime and records the fades
/// toward `listeners`.
Broadcast cope_broadcast(World& world, chan::Node_id relay, std::uint16_t seq,
                         const phy::Received_frame& a, const phy::Received_frame& b,
                         std::span<const chan::Node_id> listeners, Run_metrics& metrics);

net::Packet packet_from_frame(const phy::Received_frame& frame);

bool identity_matches(const phy::Frame_header& header, const net::Packet& packet);

/// Count a delivered packet and its BER against the payload that was sent;
/// `side_ber` also gets the BER when given.
void record_delivery(Run_metrics& metrics, const Bits& decoded, const Bits& sent,
                     Cdf* side_ber = nullptr);

} // namespace anc::sim
