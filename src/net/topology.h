// The paper's three canonical topologies (Figs. 1, 2, 11) as link plans
// for the channel substrate.
//
// Every link gets an independent random phase shift (real channels do not
// share oscillator geometry); gains default to a mildly asymmetric,
// near-unity plan so the reproduced experiments run at the paper's
// operating SNR when transmit power is 1.

#pragma once

#include <optional>

#include "channel/medium.h"
#include "util/rng.h"

namespace anc::net {

/// Per-link gain dynamics shared by a whole topology install.  The
/// default (`fixed`) is the paper's constant-gain channel; `rayleigh_block`
/// overlays Rayleigh block fading on every link (each link gets an
/// independent fading seed drawn from the install rng, so realizations
/// stay deterministic per scenario seed).  Installers take `{}` for the
/// fixed-gain plan.
struct Link_fading {
    chan::Gain_model model = chan::Gain_model::fixed;
    /// Samples per coherence block under rayleigh_block (0 = quasi-static:
    /// one fade for the whole transmission).
    std::size_t coherence_block = 4096;
};

// ---- Alice-Bob (Fig. 1): Alice <-> Router <-> Bob --------------------

struct Alice_bob_nodes {
    chan::Node_id alice;
    chan::Node_id router;
    chan::Node_id bob;
};

inline constexpr Alice_bob_nodes alice_bob_nodes{.alice = 1, .router = 2, .bob = 3};

struct Alice_bob_gains {
    double alice_router = 0.95;
    double router_alice = 0.95;
    double bob_router = 0.90;
    double router_bob = 0.90;
};

/// Install the four directed links; Alice and Bob are out of range of
/// each other (no direct link).
void install_alice_bob(chan::Medium& medium, const Alice_bob_gains& gains,
                       const Link_fading& fading, Pcg32& rng);

// ---- Chain (Fig. 2): N1 -> N2 -> N3 -> N4 ----------------------------

struct Chain_nodes {
    chan::Node_id n1;
    chan::Node_id n2;
    chan::Node_id n3;
    chan::Node_id n4;
};

inline constexpr Chain_nodes chain_nodes{.n1 = 1, .n2 = 2, .n3 = 3, .n4 = 4};

struct Chain_gains {
    double adjacent = 0.92; // every adjacent hop, both directions
};

/// Adjacent nodes are linked both ways; nodes two or more hops apart are
/// out of radio range (N4 never hears N1 — the premise of §2(b)).
void install_chain(chan::Medium& medium, const Chain_gains& gains,
                   const Link_fading& fading, Pcg32& rng);

// ---- "X" (Fig. 11): N1, N3 send through N5 to N4, N2 ------------------

struct X_nodes {
    chan::Node_id n1; // sender of flow 1 (to n4)
    chan::Node_id n2; // destination of flow 2; overhears n1
    chan::Node_id n3; // sender of flow 2 (to n2)
    chan::Node_id n4; // destination of flow 1; overhears n3
    chan::Node_id n5; // the router in the middle
};

inline constexpr X_nodes x_nodes{.n1 = 1, .n2 = 2, .n3 = 3, .n4 = 4, .n5 = 5};

struct X_gains {
    double spoke = 0.92;    // every node <-> router link
    double overhear = 0.50; // n1 -> n2 and n3 -> n4 (the snooping links)
    double cross = 0.25;    // n3 -> n2 and n1 -> n4 (interference while
                            // overhearing; the cause of §11.5's losses)
    /// Per-link AGC detection threshold installed on the two overhear
    /// links (chan::Link_params::detection_threshold_db), consulted by
    /// nodes snooping a *clean* transmission.  The standard 15 dB
    /// carrier-sense threshold sits above the overhear link's entire
    /// budget at the bottom of the operating band: gain 0.5 puts the
    /// snooped power ~6 dB below a unit-gain link, so at 20 dB SNR the
    /// packet lands ~14 dB above the floor — under 15 dB, which silently
    /// zeroed every COPE delivery there (every seed; the demodulator
    /// itself is fine at 14 dB).  A deliberate snooper listens lower by
    /// the link's budget deficit, −20·log10(gain) dB: 15 − 6 = 9 dB for
    /// gain 0.5 (6.02 dB, rounded to the historical value).  Empty
    /// disables the override (pre-fix behavior).
    std::optional<double> overhear_detection_threshold_db = 9.0;
};

void install_x(chan::Medium& medium, const X_gains& gains, const Link_fading& fading,
               Pcg32& rng);

} // namespace anc::net
