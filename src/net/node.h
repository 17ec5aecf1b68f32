// A network node: modem + sent/overheard packet buffer.
//
// Transmitting (or overhearing) a packet records its on-air frame bits so
// that a later collision containing that frame can be cancelled (§7.3).
// Regeneration needs only the deterministic framing (scrambler and frame
// layout are protocol constants) — never the transmitter's oscillator
// phase, because the decoder works purely on phase *differences*.

#pragma once

#include "channel/medium.h"
#include "core/sent_packet_buffer.h"
#include "dsp/sample.h"
#include "net/packet.h"
#include "phy/modem.h"
#include "util/rng.h"

namespace anc::net {

class Net_node {
public:
    /// Frames the buffer keeps before evicting the oldest.
    static constexpr std::size_t buffered_frames = 256;

    /// `amplitude` is the node's transmit amplitude.
    explicit Net_node(chan::Node_id id, double amplitude = 1.0);

    /// Frame, record, and modulate a packet into a caller-owned buffer
    /// (cleared first; typically a dsp::Workspace lease backing a
    /// chan::Transmission view); `rng` supplies the random oscillator
    /// phase of this transmission.
    void transmit_into(const Packet& packet, Pcg32& rng, dsp::Signal& out);

    /// Record a packet (own or overheard) without transmitting — the "X"
    /// topology's snooping path (§11.5).
    void remember(const Packet& packet);

    chan::Node_id id() const { return id_; }
    const Sent_packet_buffer& buffer() const { return buffer_; }

private:
    Stored_frame stored_frame_for(const Packet& packet) const;

    chan::Node_id id_;
    phy::Modem modem_;
    Sent_packet_buffer buffer_;
};

} // namespace anc::net
