// Single-signal modem: packet bits <-> complex samples.
//
// Implements the left half of the paper's flow chart (Fig. 8): framer +
// scrambler + MSK modulator on the way out; MSK demodulator + pilot
// search + deframer on the way in.  Interference handling lives above
// this, in core/ (the ANC receiver), which reuses the same framing.

#pragma once

#include <cstdint>
#include <optional>

#include "dsp/msk.h"
#include "dsp/sample.h"
#include "phy/detector.h"
#include "phy/frame.h"
#include "util/bits.h"

namespace anc::phy {

struct Received_frame {
    Frame_header header;
    Bits payload; // descrambled (application-domain) bits
    std::size_t pilot_errors = 0;
    std::size_t pilot_position = 0; // bit offset of the pilot in the stream
};

class Modem {
public:
    /// Pilot bit errors a clean receive tolerates.
    static constexpr std::size_t pilot_max_errors = 6;

    /// `amplitude` is the transmit amplitude of modulate_into.
    explicit Modem(double amplitude = 1.0);

    /// On-air frame bits: payload whitened, then framed (Fig. 6 layout).
    Bits frame_bits(const Frame_header& header, std::span<const std::uint8_t> payload) const;

    /// Frame bits -> samples, into a caller-owned buffer (cleared first).
    /// `initial_phase` models the transmitter's arbitrary oscillator phase.
    void modulate_into(std::span<const std::uint8_t> frame_bits,
                       double initial_phase, dsp::Signal& out) const;

    /// Standard (no interference) receive over a sample stream: demodulate,
    /// locate the pilot, validate the header, verify the payload CRC,
    /// extract and de-whiten the payload.  Nothing if no valid frame is
    /// found or the payload fails its CRC — a clean receive must be
    /// verifiably clean (this is what stops the strong half of a
    /// comparable-power collision from being reported as a good packet,
    /// while genuine capture over *weak* interference still passes).
    std::optional<Received_frame> receive(dsp::Signal_view signal) const;

    /// The same receive over an already-demodulated bit stream — the ANC
    /// receiver demodulates once and probes the stream several ways, so
    /// this avoids repeating the demodulation.
    std::optional<Received_frame> receive_bits(std::span<const std::uint8_t> bits) const;

    /// Raw hard-decision demodulation into a caller-owned buffer (cleared
    /// first; exposed for the ANC receiver).
    void demodulate_bits_into(dsp::Signal_view signal, Bits& out) const;

    /// De-whiten an on-air payload back to application bits.
    Bits descramble(std::span<const std::uint8_t> payload) const;

private:
    double amplitude_;
    dsp::Msk_demodulator demodulator_;
};

} // namespace anc::phy
