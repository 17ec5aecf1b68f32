#include "net/topology.h"

#include <numbers>

namespace anc::net {

namespace {

chan::Link_params link_with(double gain, const Link_fading& fading, Pcg32& rng)
{
    chan::Link_params params;
    params.gain = gain;
    params.phase = rng.next_double() * 2.0 * std::numbers::pi;
    // Real radio pairs never share an oscillator: a few-ppm carrier
    // frequency offset makes the relative phase of any two signals drift.
    // The drift per symbol is tiny against MSK's +-pi/2 decision margins,
    // but it sweeps cos(theta - phi) across the circle — the assumption
    // behind the paper's amplitude estimator (§6.2).
    params.phase_drift = (rng.next_double() - 0.5) * 0.006;
    if (fading.model != chan::Gain_model::fixed) {
        // Fixed links consume exactly two draws, as before this field
        // existed — fading seeds are drawn only when a link fades, so
        // fixed-gain installs stay byte-identical across versions.
        params.gain_model = fading.model;
        params.coherence_block = fading.coherence_block;
        params.fading_seed = rng.next_u64();
    }
    return params;
}

} // namespace

void install_alice_bob(chan::Medium& medium, const Alice_bob_gains& gains,
                       const Link_fading& fading, Pcg32& rng)
{
    constexpr const Alice_bob_nodes& nodes = alice_bob_nodes;
    medium.set_link(nodes.alice, nodes.router, link_with(gains.alice_router, fading, rng));
    medium.set_link(nodes.router, nodes.alice, link_with(gains.router_alice, fading, rng));
    medium.set_link(nodes.bob, nodes.router, link_with(gains.bob_router, fading, rng));
    medium.set_link(nodes.router, nodes.bob, link_with(gains.router_bob, fading, rng));
}

void install_chain(chan::Medium& medium, const Chain_gains& gains,
                   const Link_fading& fading, Pcg32& rng)
{
    constexpr chan::Node_id ids[] = {chain_nodes.n1, chain_nodes.n2, chain_nodes.n3,
                                     chain_nodes.n4};
    for (int i = 0; i < 3; ++i) {
        medium.set_link(ids[i], ids[i + 1], link_with(gains.adjacent, fading, rng));
        medium.set_link(ids[i + 1], ids[i], link_with(gains.adjacent, fading, rng));
    }
}

void install_x(chan::Medium& medium, const X_gains& gains, const Link_fading& fading,
               Pcg32& rng)
{
    constexpr const X_nodes& nodes = x_nodes;
    for (const chan::Node_id spoke : {nodes.n1, nodes.n2, nodes.n3, nodes.n4}) {
        medium.set_link(spoke, nodes.n5, link_with(gains.spoke, fading, rng));
        medium.set_link(nodes.n5, spoke, link_with(gains.spoke, fading, rng));
    }
    // Overhearing links carry the per-link AGC detection threshold: a
    // node snooping a clean upload listens below the standard
    // carrier-sense threshold by the link's budget deficit (the
    // promoted Medium-layer form of the old X_config snoop knob).
    chan::Link_params overhear_12 = link_with(gains.overhear, fading, rng);
    overhear_12.detection_threshold_db = gains.overhear_detection_threshold_db;
    medium.set_link(nodes.n1, nodes.n2, overhear_12);
    chan::Link_params overhear_34 = link_with(gains.overhear, fading, rng);
    overhear_34.detection_threshold_db = gains.overhear_detection_threshold_db;
    medium.set_link(nodes.n3, nodes.n4, overhear_34);
    // Weak cross links: the other sender is audible while overhearing.
    medium.set_link(nodes.n3, nodes.n2, link_with(gains.cross, fading, rng));
    medium.set_link(nodes.n1, nodes.n4, link_with(gains.cross, fading, rng));
}

} // namespace anc::net
