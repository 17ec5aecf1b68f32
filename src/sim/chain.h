// Chain topology runs (Fig. 2, §11.6): one unidirectional flow over
// N1 -> N2 -> N3 -> N4.
//
//   traditional — 3 slots per packet (hops cannot be pipelined: any two
//                 of the three hops interfere at some node);
//   ANC         — 2 slots per packet: N2's forward to N3 doubles as the
//                 trigger, then N1 (next packet) and N3 (forward to N4)
//                 transmit together; N2 cancels N3's known signal and
//                 decodes N1's new packet directly.  COPE does not apply
//                 to unidirectional traffic.
//
// Because N2 decodes the collision where it happens (no amplify-and-
// forward), the chain's BER is lower than Alice-Bob's — the effect the
// paper highlights in Fig. 12(b).

#pragma once

#include "net/topology.h"
#include "sim/metrics.h"
#include "sim/run_config.h"
#include "util/stats.h"

namespace anc::sim {

/// `exchanges` counts the packets N1 sends.
struct Chain_config : Run_config {
    net::Chain_gains gains{};
};

struct Chain_result {
    Run_metrics metrics;
    Cdf ber_at_n2; // BER of the ANC decodes at N2 (the paper's Fig. 12(b))
};

Chain_result run_chain_traditional(const Chain_config& config);
Chain_result run_chain_anc(const Chain_config& config);

} // namespace anc::sim
