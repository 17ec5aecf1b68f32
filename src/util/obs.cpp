#include "util/obs.h"

namespace anc::obs {

namespace {

// The thread's bound recorder.  Unlike dsp::Workspace there is no
// fallback default: an unbound thread means telemetry is off, and every
// obs:: helper must stay a no-op so uninstrumented runs are unperturbed.
thread_local Recorder* t_bound = nullptr;

} // namespace

const char* to_string(Counter counter)
{
    switch (counter) {
    case Counter::packet_detect_triggers: return "packet_detect_triggers";
    case Counter::packet_detect_rejections: return "packet_detect_rejections";
    case Counter::agc_lookups: return "agc_lookups";
    case Counter::agc_overrides: return "agc_overrides";
    case Counter::interference_analyses: return "interference_analyses";
    case Counter::interference_detected: return "interference_detected";
    case Counter::pilot_searches: return "pilot_searches";
    case Counter::pilot_hits: return "pilot_hits";
    case Counter::pilot_misses: return "pilot_misses";
    case Counter::pilot_hit_offset_sum: return "pilot_hit_offset_sum";
    case Counter::pilot_hit_error_sum: return "pilot_hit_error_sum";
    case Counter::crc_pass: return "crc_pass";
    case Counter::crc_fail: return "crc_fail";
    case Counter::fec_codewords: return "fec_codewords";
    case Counter::fec_corrected_bits: return "fec_corrected_bits";
    case Counter::decode_calls: return "decode_calls";
    case Counter::decode_selected_samples: return "decode_selected_samples";
    case Counter::decode_tail_samples: return "decode_tail_samples";
    case Counter::rx_no_packet: return "rx_no_packet";
    case Counter::rx_clean: return "rx_clean";
    case Counter::rx_decoded_interference: return "rx_decoded_interference";
    case Counter::rx_forward_candidate: return "rx_forward_candidate";
    case Counter::rx_failed: return "rx_failed";
    case Counter::rx_fail_no_known_header: return "rx_fail_no_known_header";
    case Counter::rx_fail_no_overlap: return "rx_fail_no_overlap";
    case Counter::rx_fail_no_amplitudes: return "rx_fail_no_amplitudes";
    case Counter::rx_fail_no_unknown_pilot: return "rx_fail_no_unknown_pilot";
    case Counter::rx_fail_bad_unknown_frame: return "rx_fail_bad_unknown_frame";
    case Counter::pilot_degenerate: return "pilot_degenerate";
    case Counter::packet_detect_exact_fallbacks: return "packet_detect_exact_fallbacks";
    case Counter::interference_exact_fallbacks: return "interference_exact_fallbacks";
    case Counter::count: break;
    }
    return "unknown";
}

const char* to_string(Stage stage)
{
    switch (stage) {
    case Stage::modulate: return "modulate";
    case Stage::channel: return "channel";
    case Stage::packet_detect: return "packet_detect";
    case Stage::interference_analyze: return "interference_analyze";
    case Stage::demodulate: return "demodulate";
    case Stage::pilot_search: return "pilot_search";
    case Stage::amplitude_estimate: return "amplitude_estimate";
    case Stage::interference_decode: return "interference_decode";
    case Stage::fec_decode: return "fec_decode";
    case Stage::count: break;
    }
    return "unknown";
}

Recorder* Recorder::current() { return t_bound; }

Recorder::Bind::Bind(Recorder& recorder) : previous_{t_bound} { t_bound = &recorder; }

Recorder::Bind::~Bind() { t_bound = previous_; }

} // namespace anc::obs
