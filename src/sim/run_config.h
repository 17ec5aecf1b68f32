// What every topology run is configured by.  The topology configs
// (Alice_bob_config, X_config, Chain_config) add their link gains on top;
// node ids are the fixed tables of net/topology.h.

#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/math_profile.h"
#include "net/topology.h"

namespace anc::sim {

struct Run_config {
    std::size_t payload_bits = 2048;
    std::size_t exchanges = 25;     // packet pairs per run (packets, for the chain)
    double snr_db = 25.0;           // receiver SNR for a unit-power sender
    net::Link_fading fading{};      // per-link gain dynamics (default: fixed)
    /// Variance threshold of every receiver's interference detector.
    double detector_threshold_db = 10.0;
    /// Math profile for the whole run: medium noise and the
    /// interference decoder (dsp/math_profile.h).
    /// `exact` (the default) is byte-identical to the historical runs.
    dsp::Math_profile math_profile = dsp::Math_profile::exact;
    std::uint64_t seed = 1;
};

} // namespace anc::sim
