// Alice-Bob topology runs (Fig. 1, §11.4): two flows crossing a relay,
// under the three compared schemes.
//
//   traditional — 4 slots per packet pair (optimal MAC, no collisions);
//   COPE        — 3 slots: two uploads, one XOR broadcast;
//   ANC         — 2 slots: a deliberate collision, then amplify-and-
//                 forward; each side cancels its own signal.
//
// All three run over the same sample-level channel substrate, so losses,
// bit errors, imperfect overlap, and amplified relay noise emerge from
// the signal path rather than being injected.  Alice-Bob and X share one
// crossing-flows schedule (sim/crossing.cpp).

#pragma once

#include "net/topology.h"
#include "sim/metrics.h"
#include "sim/run_config.h"
#include "util/stats.h"

namespace anc::sim {

struct Alice_bob_config : Run_config {
    double alice_amplitude = 1.0;  // transmit amplitudes (Fig. 13 varies
    double bob_amplitude = 1.0;    // Bob's while Alice's stays fixed)
    net::Alice_bob_gains gains{};
};

struct Alice_bob_result {
    Run_metrics metrics;
    Cdf ber_at_alice; // BER of Bob's packets as decoded by Alice
    Cdf ber_at_bob;   // BER of Alice's packets as decoded by Bob
    /// Channel-state series under rayleigh_block fading: |h| of every
    /// coherence block each transmission spanned (empty for fixed gains).
    Cdf fade_magnitude;
};

Alice_bob_result run_alice_bob_traditional(const Alice_bob_config& config);
Alice_bob_result run_alice_bob_cope(const Alice_bob_config& config);
Alice_bob_result run_alice_bob_anc(const Alice_bob_config& config);

} // namespace anc::sim
