#include "core/anc_receiver.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/amplitude_estimator.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "dsp/workspace.h"
#include "phy/frame.h"
#include "phy/pilot.h"
#include "util/obs.h"

namespace anc {

namespace {

/// Telemetry tally of a finished receive(): one outcome counter, plus the
/// decode-failure reason when the interference path gave up.
void count_outcome(const Receive_outcome& outcome)
{
    if (!obs::enabled())
        return;
    switch (outcome.status) {
    case Receive_status::no_packet: obs::count(obs::Counter::rx_no_packet); break;
    case Receive_status::clean: obs::count(obs::Counter::rx_clean); break;
    case Receive_status::decoded_interference:
        obs::count(obs::Counter::rx_decoded_interference);
        break;
    case Receive_status::forward_candidate:
        obs::count(obs::Counter::rx_forward_candidate);
        break;
    case Receive_status::failed: obs::count(obs::Counter::rx_failed); break;
    }
    switch (outcome.diag.failure) {
    case Decode_failure::none: break;
    case Decode_failure::no_known_header:
        obs::count(obs::Counter::rx_fail_no_known_header);
        break;
    case Decode_failure::no_overlap: obs::count(obs::Counter::rx_fail_no_overlap); break;
    case Decode_failure::no_amplitudes:
        obs::count(obs::Counter::rx_fail_no_amplitudes);
        break;
    case Decode_failure::no_unknown_pilot:
        obs::count(obs::Counter::rx_fail_no_unknown_pilot);
        break;
    case Decode_failure::bad_unknown_frame:
        obs::count(obs::Counter::rx_fail_bad_unknown_frame);
        break;
    }
}

/// Decode the 64 header bits that follow a pilot found at `pilot_pos`.
std::optional<phy::Frame_header> header_after_pilot(const Bits& bits, std::size_t pilot_pos)
{
    const std::size_t header_pos = pilot_pos + phy::pilot_length;
    if (header_pos + phy::header_length > bits.size())
        return std::nullopt;
    return phy::decode_header(
        std::span<const std::uint8_t>{bits}.subspan(header_pos, phy::header_length));
}

/// Recover the unknown frame from its tail copies (mirrored pilot and
/// header, §7.4).  The unknown packet in a decoded stream ends last, i.e.
/// in its interference-free region, so the tail fields are reliable even
/// when the head fields fell into a noisy stretch of the collision.
/// Rejects frames whose header equals `known_header` (the degenerate
/// self-mirror of the cancelled signal).
std::optional<phy::Parsed_frame> recover_from_tail(const Bits& bits,
                                                   const phy::Packed_bits& packed_bits,
                                                   const phy::Frame_header& known_header,
                                                   std::size_t& pilot_errors_out)
{
    if (bits.size() < phy::frame_overhead_bits)
        return std::nullopt;
    // The mirrored pilot is the last field of the frame; the stream may
    // run a few windowed samples past the true end, so scan the last
    // stretch for the best match.  The caller's packed haystack covers
    // these bits, so the tail scan packs nothing.
    const std::size_t last_start = bits.size() - phy::pilot_length;
    const std::size_t from = last_start > 192 ? last_start - 192 : 0;
    const auto tail_pilot = phy::find_pattern(packed_bits, phy::pilot_mirrored_packed(),
                                              from, last_start, 8);
    if (!tail_pilot)
        return std::nullopt;
    if (tail_pilot->position < phy::header_length)
        return std::nullopt;

    // The mirrored header sits just before the mirrored pilot.
    const auto tail_header_bits = mirrored(std::span<const std::uint8_t>{bits}.subspan(
        tail_pilot->position - phy::header_length, phy::header_length));
    const auto header = phy::decode_header(tail_header_bits);
    if (!header || *header == known_header)
        return std::nullopt;

    // The frame's extent follows from the header's payload length.
    const std::size_t frame_end = tail_pilot->position + phy::pilot_length;
    const std::size_t total = phy::frame_length(header->payload_bits);
    if (frame_end < total)
        return std::nullopt;
    const std::size_t frame_start = frame_end - total;
    const phy::Frame_offsets offsets = phy::frame_offsets(header->payload_bits);
    phy::Parsed_frame parsed;
    parsed.header = *header;
    const auto payload = std::span<const std::uint8_t>{bits}.subspan(
        frame_start + offsets.payload, header->payload_bits);
    parsed.payload.assign(payload.begin(), payload.end());
    parsed.crc_ok = false; // not verified on this path
    pilot_errors_out = tail_pilot->errors;
    return parsed;
}

} // namespace

Anc_receiver::Anc_receiver(Anc_receiver_config config, double noise_power,
                           dsp::Math_profile profile)
    : config_{config},
      noise_power_{noise_power},
      packet_detector_{noise_power, config.packet_detector},
      interference_detector_{noise_power, config.interference_detector},
      decoder_{profile}
{
}

Receive_outcome Anc_receiver::receive(dsp::Signal_view stream,
                                      const Sent_packet_buffer& buffer) const
{
    Receive_outcome outcome;

    const auto bounds = packet_detector_.detect(stream);
    if (!bounds) {
        count_outcome(outcome); // status stays no_packet
        return outcome;
    }

    const dsp::Signal_view packet = dsp::slice_view(stream, bounds->begin, bounds->end);
    const phy::Interference_report report = interference_detector_.analyze(packet);

    if (!report.interfered) {
        const auto frame = modem_.receive(packet);
        if (frame) {
            outcome.status = Receive_status::clean;
            outcome.frame = frame;
        } else {
            outcome.status = Receive_status::failed;
        }
        count_outcome(outcome);
        return outcome;
    }

    dsp::Workspace& workspace = dsp::Workspace::current();

    // Collision.  Read the header at the clean head (the first packet's).
    auto forward_bits = workspace.bits();
    modem_.demodulate_bits_into(packet, *forward_bits);
    const auto forward_pilot = phy::find_pattern(*forward_bits, phy::pilot_sequence(), 0,
                                                 pilot_search_span, phy::Modem::pilot_max_errors);
    if (forward_pilot)
        outcome.diag.first_header = header_after_pilot(*forward_bits, forward_pilot->position);

    // Which half of the collision do we know?  (§7.3)
    if (outcome.diag.first_header && buffer.contains(*outcome.diag.first_header)) {
        const Stored_frame* known = buffer.lookup(*outcome.diag.first_header);
        // The forward domain is exactly the span the interference
        // detector already analyzed — reuse that report.
        outcome.frame = decode_interfered(packet, forward_pilot->position, *known,
                                          /*backward=*/false, outcome.diag, &report);
    } else {
        // Not the head: read the header at the clean tail (the second
        // packet's) through time reversal (§7.4).
        auto reversed = workspace.signal();
        dsp::time_reverse_into(packet, *reversed);
        auto backward_bits = workspace.bits();
        modem_.demodulate_bits_into(*reversed, *backward_bits);
        const auto backward_pilot =
            phy::find_pattern(*backward_bits, phy::pilot_sequence(), 0, pilot_search_span,
                              phy::Modem::pilot_max_errors);
        if (backward_pilot)
            outcome.diag.second_header =
                header_after_pilot(*backward_bits, backward_pilot->position);

        if (outcome.diag.second_header && buffer.contains(*outcome.diag.second_header)) {
            const Stored_frame* known = buffer.lookup(*outcome.diag.second_header);
            outcome.frame = decode_interfered(*reversed, backward_pilot->position, *known,
                                              /*backward=*/true, outcome.diag, nullptr);
        } else {
            // Neither half is known.  Try a capture decode first: when one
            // signal is much stronger (the "X" topology's overhearing,
            // §11.5), standard demodulation of the dominant signal often
            // succeeds with the weak one acting as noise.  The payload CRC
            // inside the receive keeps comparable-power collisions (whose
            // payload would be garbage) from masquerading as clean
            // packets.  The stream was demodulated above already, so probe
            // those bits directly.
            if (const auto captured = modem_.receive_bits(*forward_bits)) {
                outcome.status = Receive_status::clean;
                outcome.frame = captured;
                count_outcome(outcome);
                return outcome;
            }
            outcome.diag.failure = Decode_failure::no_known_header;
            outcome.status = (outcome.diag.first_header && outcome.diag.second_header)
                                 ? Receive_status::forward_candidate
                                 : Receive_status::failed;
            count_outcome(outcome);
            return outcome;
        }
    }

    outcome.status = outcome.frame ? Receive_status::decoded_interference
                                   : Receive_status::failed;
    count_outcome(outcome);
    return outcome;
}

std::optional<phy::Received_frame> Anc_receiver::decode_interfered(
    dsp::Signal_view domain_slice,
    std::size_t pilot_pos,
    const Stored_frame& known,
    bool backward,
    Interference_diag& diag,
    const phy::Interference_report* analyzed) const
{
    diag.backward = backward;
    dsp::Workspace& workspace = dsp::Workspace::current();

    // In the time-reversed domain the known frame's bits read backwards
    // (the reversal transform preserves phase-difference signs, so the
    // expected step sequence is simply the mirrored bit sequence's).
    auto mirror = workspace.bits();
    if (backward)
        mirror->assign(known.frame_bits.rbegin(), known.frame_bits.rend());
    const std::span<const std::uint8_t> known_bits =
        backward ? std::span<const std::uint8_t>{*mirror}
                 : std::span<const std::uint8_t>{known.frame_bits};
    auto known_diffs = workspace.reals();
    dsp::phase_differences_for_bits_into(known_bits, *known_diffs);

    // Locate the collision region in *this* domain (or reuse the caller's
    // analysis of the identical span).
    const phy::Interference_report report =
        analyzed ? *analyzed : interference_detector_.analyze(domain_slice);
    if (!report.interfered) {
        diag.failure = Decode_failure::no_overlap;
        return std::nullopt;
    }
    diag.overlap_begin = report.overlap_begin;
    diag.overlap_end = report.overlap_end;

    // ---- Amplitude estimation (§6.2) -------------------------------
    std::optional<Amplitude_estimate> amplitudes;
    {
        const obs::Stage_timer timer{obs::Stage::amplitude_estimate};

        // Clean, known-only prefix: from the known frame's first sample
        // to the start of the overlap.
        double prefix_amplitude = 0.0;
        if (report.overlap_begin > pilot_pos + min_prefix) {
            const dsp::Signal_view prefix =
                dsp::slice_view(domain_slice, pilot_pos, report.overlap_begin);
            prefix_amplitude = amplitude_from_clean_region(prefix, noise_power_);
        }

        // Overlap window, clipped to the known signal's extent (beyond it
        // the mix is no longer two signals).
        const std::size_t known_end_sample = pilot_pos + known_bits.size() + 1;
        const std::size_t window_begin = report.overlap_begin;
        const std::size_t window_end = std::min({report.overlap_end, known_end_sample,
                                                 domain_slice.size()});
        if (window_end <= window_begin) {
            diag.failure = Decode_failure::no_overlap;
            return std::nullopt;
        }
        const dsp::Signal_view overlap =
            dsp::slice_view(domain_slice, window_begin, window_end);

        if (!config_.mu_sigma_only && prefix_amplitude > 0.0)
            amplitudes =
                estimate_with_known_amplitude(overlap, noise_power_, prefix_amplitude);
        if (!amplitudes && !config_.mu_sigma_only)
            amplitudes = estimate_amplitudes_by_variance(overlap, noise_power_);
        if (!amplitudes) {
            // The paper's Eq. 5-6 estimator (also the mu_sigma_only ablation).
            amplitudes = estimate_amplitudes(overlap, noise_power_);
        }
        if (!amplitudes) {
            diag.failure = Decode_failure::no_amplitudes;
            return std::nullopt;
        }
        if (prefix_amplitude > 0.0
            && std::abs(amplitudes->b - prefix_amplitude)
                   < std::abs(amplitudes->a - prefix_amplitude)) {
            // Blind estimators cannot tell which amplitude is whose; assign
            // the one nearer the prefix measurement to the known signal.
            std::swap(amplitudes->a, amplitudes->b);
        }
    }
    diag.est_known_amp = amplitudes->a;
    diag.est_unknown_amp = amplitudes->b;

    // ---- Interference decoding (§6.3-6.4) --------------------------
    const dsp::Signal_view aligned =
        dsp::slice_view(domain_slice, pilot_pos, domain_slice.size());
    auto decoded_bits = workspace.bits();
    auto phi_differences = workspace.reals();
    auto match_errors = workspace.reals();
    decoder_.decode_into(aligned, *known_diffs, amplitudes->a, amplitudes->b,
                         *decoded_bits, *phi_differences, *match_errors);
    if (!match_errors->empty()) {
        diag.mean_match_error =
            std::accumulate(match_errors->begin(), match_errors->end(), 0.0)
            / static_cast<double>(match_errors->size());
    }

    // ---- Locate and deframe the unknown packet (§7.2) ---------------
    // The decoded stream carries the unknown packet's bits from wherever
    // it started; its own pilot marks that point.  One trap: before the
    // unknown signal starts, a lone signal decomposes into two rigidly
    // coupled vectors and the decoder's output degenerately *mirrors the
    // known frame's bits* — including its pilot.  So the search is
    // bounded by the measured overlap start and any candidate whose
    // header equals the known frame's is rejected and skipped.
    const std::size_t unknown_start =
        report.overlap_begin > pilot_pos ? report.overlap_begin - pilot_pos : 0;
    const std::size_t search_to =
        unknown_start + 6 * phy::Interference_detector::window;
    // Pack the decoded stream once: the pilot loop below and the
    // mirrored-tail fallback all scan these same bits.
    const phy::Packed_bits packed_decoded{*decoded_bits};
    std::optional<phy::Parsed_frame> parsed;
    std::size_t pilot_errors = 0;
    std::size_t search_from = 0;
    while (!parsed) {
        const auto unknown_pilot =
            phy::find_pattern(packed_decoded, phy::pilot_packed(), search_from, search_to,
                              unknown_pilot_max_errors);
        if (!unknown_pilot)
            break;
        parsed = phy::parse_frame_at(*decoded_bits, unknown_pilot->position);
        if (parsed && parsed->header == known.header) {
            // The known frame's degenerate mirror of itself: skip past it.
            parsed.reset();
        }
        if (parsed) {
            pilot_errors = unknown_pilot->errors;
            break;
        }
        search_from = unknown_pilot->position + 1;
        if (search_from > search_to)
            break;
    }

    if (!parsed) {
        // Head-side framing failed: the unknown packet's leading pilot or
        // header fell into a high-error stretch of the collision (the two
        // constellations periodically align as the carriers drift).  This
        // is exactly why the frame carries a *mirrored* header and pilot
        // at its other end (§7.4): the unknown packet ends in its
        // interference-free region, so its tail copy decodes cleanly.
        parsed = recover_from_tail(*decoded_bits, packed_decoded, known.header,
                                   pilot_errors);
        if (!parsed) {
            diag.failure = Decode_failure::no_unknown_pilot;
            return std::nullopt;
        }
    }

    phy::Received_frame frame;
    frame.header = parsed->header;
    frame.pilot_errors = pilot_errors;
    // In the reversed domain the frame's payload came out reversed; undo
    // that before de-whitening (the scrambler runs forward).
    const Bits payload_on_air = backward ? mirrored(parsed->payload) : parsed->payload;
    frame.payload = modem_.descramble(payload_on_air);
    diag.unknown_pilot_errors = pilot_errors;
    return frame;
}

} // namespace anc
