// "X" topology runs (Fig. 11, §11.5): two flows crossing a relay, where
// the destinations know the interfering packet from *overhearing* rather
// than from having sent it.
//
//   traditional — 4 slots (each flow: sender -> relay -> destination);
//   COPE        — 3 slots: two clean uploads (each overheard by the
//                 opposite destination), one XOR broadcast;
//   ANC         — 2 slots: both senders transmit at once (overhearing now
//                 happens *under interference* — the capture decode that
//                 sometimes fails, §11.5), then amplify-and-forward.
//
// The schedule is Alice-Bob's (sim/crossing.cpp); only the node table
// differs, and it is what makes the destinations overhear.

#pragma once

#include "net/topology.h"
#include "sim/metrics.h"
#include "sim/run_config.h"
#include "util/stats.h"

namespace anc::sim {

struct X_config : Run_config {
    net::X_gains gains{}; // includes the overhear links' AGC detection threshold
};

struct X_result {
    Run_metrics metrics;
    Cdf ber_at_n2; // BER of flow n3 -> n2 packets decoded at n2
    Cdf ber_at_n4;
    /// Channel-state series under rayleigh_block fading: |h| of every
    /// coherence block each transmission spanned (empty for fixed gains).
    Cdf fade_magnitude;
    std::size_t overhear_attempts = 0;
    std::size_t overhear_failures = 0;

    double overhear_failure_rate() const
    {
        return overhear_attempts == 0
                   ? 0.0
                   : static_cast<double>(overhear_failures)
                         / static_cast<double>(overhear_attempts);
    }
};

X_result run_x_traditional(const X_config& config);
X_result run_x_cope(const X_config& config);
X_result run_x_anc(const X_config& config);

} // namespace anc::sim
