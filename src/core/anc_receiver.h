// The full ANC receive pipeline — Algorithm 1 of the paper.
//
//   energy detect -> interference detect
//     clean     -> standard MSK receive
//     collision -> read the head header (forward), and when the buffer
//                  does not hold it, the tail header (through the
//                  time-reversal transform, §7.4); whichever matches a
//                  frame in the sent/overheard buffer decides whether we
//                  decode forward (our packet started first — Alice) or
//                  backward (ours ended last — Bob); align via
//                  the pilot, estimate amplitudes, run the interference
//                  decoder, then find the unknown packet's pilot in the
//                  decoded bit stream and deframe it.
//     neither header known -> report a forward candidate (the relay may
//                  amplify-and-forward it, §7.5) or a failure.

#pragma once

#include <optional>

#include "core/interference_decoder.h"
#include "core/sent_packet_buffer.h"
#include "dsp/sample.h"
#include "phy/detector.h"
#include "phy/modem.h"

namespace anc {

enum class Receive_status {
    no_packet,            // nothing above the noise floor
    clean,                // a single, successfully decoded packet
    decoded_interference, // collision decoded via ANC
    forward_candidate,    // collision of two unknown packets with readable
                          // headers — relay material
    failed,               // energy present but nothing decodable
};

/// Where an attempted interference decode gave up (diagnostics).
enum class Decode_failure {
    none,            // succeeded
    no_known_header, // neither clean header matched the buffer
    no_overlap,      // interference detector found no collision region
    no_amplitudes,   // amplitude estimation degenerated
    no_unknown_pilot,// the unknown packet's pilot was not found
    bad_unknown_frame, // pilot found but the frame would not parse
};

struct Interference_diag {
    std::optional<phy::Frame_header> first_header;  // from the clean head
    std::optional<phy::Frame_header> second_header; // from the clean tail; read
                                                    // only when the head's is not
                                                    // in the buffer
    bool backward = false;       // decoded in the time-reversed domain
    double est_known_amp = 0.0;  // estimated amplitude of the known signal
    double est_unknown_amp = 0.0;
    std::size_t overlap_begin = 0;
    std::size_t overlap_end = 0;
    double mean_match_error = 0.0; // mean Eq. 8 error over the collision
    std::size_t unknown_pilot_errors = 0;
    Decode_failure failure = Decode_failure::none;
};

struct Receive_outcome {
    Receive_status status = Receive_status::no_packet;
    std::optional<phy::Received_frame> frame;
    Interference_diag diag;
};

struct Anc_receiver_config {
    phy::Packet_detector::Config packet_detector{};
    phy::Interference_detector::Config interference_detector{};
    /// Ablation switch: ignore the prefix refinement and use the paper's
    /// pure mu/sigma amplitude estimator (§6.2) alone.
    bool mu_sigma_only = false;
};

class Anc_receiver {
public:
    /// How many bit positions from the head (and, time-reversed, from the
    /// tail) to scan for a collision's pilot: covers the maximum trigger
    /// jitter, trigger_slot_count · trigger_slot_symbols = 1120 symbols
    /// (§7.2), plus detector slop.
    static constexpr std::size_t pilot_search_span = 1536;
    /// Error tolerance when hunting the *unknown* packet's pilot inside
    /// the interference-decoded bit stream (noisier than a clean region).
    static constexpr std::size_t unknown_pilot_max_errors = 10;
    /// Minimum samples of clean, known-only prefix needed to trust the
    /// prefix amplitude estimate.
    static constexpr std::size_t min_prefix = 24;

    /// `profile` selects the math kernels of the interference decoder
    /// (Eq. 7–8 atan2): the default keeps the historical bit-exact path;
    /// the sims pass their run-level math profile down here.
    Anc_receiver(Anc_receiver_config config, double noise_power,
                 dsp::Math_profile profile = dsp::Math_profile::exact);

    /// Process one received round.  `buffer` holds the frames this node
    /// sent or overheard (§7.3).
    Receive_outcome receive(dsp::Signal_view stream, const Sent_packet_buffer& buffer) const;

private:
    /// `analyzed` optionally carries the interference report of exactly
    /// `domain_slice` (the forward domain is analyzed during receive()
    /// already); nullptr means analyze here.
    std::optional<phy::Received_frame> decode_interfered(
        dsp::Signal_view domain_slice,
        std::size_t pilot_pos,
        const Stored_frame& known,
        bool backward,
        Interference_diag& diag,
        const phy::Interference_report* analyzed) const;

    Anc_receiver_config config_;
    double noise_power_;
    phy::Modem modem_;
    phy::Packet_detector packet_detector_;
    phy::Interference_detector interference_detector_;
    Interference_decoder decoder_;
};

} // namespace anc
