#include "net/node.h"

#include <numbers>

namespace anc::net {

Net_node::Net_node(chan::Node_id id, phy::Modem_config modem_config,
                   std::size_t buffer_capacity)
    : id_{id}, modem_{modem_config}, buffer_{buffer_capacity}
{
}

Stored_frame Net_node::stored_frame_for(const Packet& packet) const
{
    Stored_frame stored;
    stored.header = header_for(packet);
    stored.frame_bits = modem_.frame_bits(stored.header, packet.payload);
    stored.payload = packet.payload;
    return stored;
}

void Net_node::transmit_into(const Packet& packet, Pcg32& rng, dsp::Signal& out)
{
    Stored_frame stored = stored_frame_for(packet);
    const double phase = rng.next_double() * 2.0 * std::numbers::pi;
    modem_.modulate_into(stored.frame_bits, phase, out);
    buffer_.store(std::move(stored));
}

void Net_node::remember(const Packet& packet)
{
    buffer_.store(stored_frame_for(packet));
}

} // namespace anc::net
