// The topology runners (sim/) wrapped as engine scenarios.
//
// Each adapter maps the uniform Scenario_config onto the topology's
// concrete config struct, dispatches on scheme, and repackages the
// result's topology-specific CDFs/counters into the named series/scalar
// maps.
//
// The *_fading variants run the same topologies over Rayleigh
// block-fading links (Rahimian et al., PAPERS.md): every link gain is
// multiplied by an independent CN(0,1) coefficient per coherence block,
// with the grid's coherence_block / mean_link_gain axes mapped onto the
// channel substrate.  Fading seeds flow from the scenario seed, so
// scheme-collapsed tasks still share channel realizations.

#include <memory>
#include <stdexcept>

#include "engine/scenario.h"
#include "sim/alice_bob.h"
#include "sim/chain.h"
#include "sim/x_topology.h"

namespace anc::engine {

namespace {

/// A topology's sim config with the fields every run shares filled from
/// the scenario config.
template <class Sim_config>
Sim_config sim_config_for(const Scenario_config& config, std::uint64_t seed)
{
    Sim_config sim_config;
    sim_config.payload_bits = config.payload_bits;
    sim_config.exchanges = config.exchanges;
    sim_config.snr_db = config.snr_db;
    sim_config.receiver = config.receiver;
    sim_config.math_profile = config.math_profile;
    sim_config.seed = seed;
    return sim_config;
}

/// The *_fading variants: Rayleigh block fading on every link.
template <class Sim_config>
Sim_config fading_config_for(const Scenario_config& config, std::uint64_t seed)
{
    Sim_config sim_config = sim_config_for<Sim_config>(config, seed);
    sim_config.fading.model = chan::Gain_model::rayleigh_block;
    sim_config.fading.coherence_block = config.coherence_block;
    return sim_config;
}

Scenario_result run_alice_bob_sim(const Scenario_config& config,
                                  sim::Alice_bob_config sim_config)
{
    sim_config.alice_amplitude = config.alice_amplitude;
    sim_config.bob_amplitude = config.bob_amplitude;
    sim::Alice_bob_result sim_result;
    if (config.scheme == "traditional")
        sim_result = sim::run_alice_bob_traditional(sim_config);
    else if (config.scheme == "cope")
        sim_result = sim::run_alice_bob_cope(sim_config);
    else
        sim_result = sim::run_alice_bob_anc(sim_config);

    Scenario_result result;
    result.metrics = std::move(sim_result.metrics);
    result.series["ber_at_alice"] = std::move(sim_result.ber_at_alice);
    result.series["ber_at_bob"] = std::move(sim_result.ber_at_bob);
    // Channel-state series, present only on fading runs so fixed-gain
    // sweep JSON stays byte-identical to the pre-series emitters.
    if (!sim_result.fade_magnitude.empty())
        result.series["fade_magnitude"] = std::move(sim_result.fade_magnitude);
    return result;
}

Scenario_result run_alice_bob(const Scenario_config& config, std::uint64_t seed)
{
    return run_alice_bob_sim(config, sim_config_for<sim::Alice_bob_config>(config, seed));
}

Scenario_result run_alice_bob_fading(const Scenario_config& config, std::uint64_t seed)
{
    auto sim_config = fading_config_for<sim::Alice_bob_config>(config, seed);
    sim_config.gains.alice_router *= config.mean_link_gain;
    sim_config.gains.router_alice *= config.mean_link_gain;
    sim_config.gains.bob_router *= config.mean_link_gain;
    sim_config.gains.router_bob *= config.mean_link_gain;
    return run_alice_bob_sim(config, sim_config);
}

Scenario_result run_x_sim(const Scenario_config& config, const sim::X_config& sim_config)
{
    sim::X_result sim_result;
    if (config.scheme == "traditional")
        sim_result = sim::run_x_traditional(sim_config);
    else if (config.scheme == "cope")
        sim_result = sim::run_x_cope(sim_config);
    else
        sim_result = sim::run_x_anc(sim_config);

    Scenario_result result;
    result.metrics = std::move(sim_result.metrics);
    result.series["ber_at_n2"] = std::move(sim_result.ber_at_n2);
    result.series["ber_at_n4"] = std::move(sim_result.ber_at_n4);
    if (!sim_result.fade_magnitude.empty())
        result.series["fade_magnitude"] = std::move(sim_result.fade_magnitude);
    result.scalars["overhear_attempts"] =
        static_cast<double>(sim_result.overhear_attempts);
    result.scalars["overhear_failures"] =
        static_cast<double>(sim_result.overhear_failures);
    return result;
}

Scenario_result run_x_topology(const Scenario_config& config, std::uint64_t seed)
{
    return run_x_sim(config, sim_config_for<sim::X_config>(config, seed));
}

Scenario_result run_x_topology_fading(const Scenario_config& config, std::uint64_t seed)
{
    auto sim_config = fading_config_for<sim::X_config>(config, seed);
    sim_config.gains.spoke *= config.mean_link_gain;
    sim_config.gains.overhear *= config.mean_link_gain;
    sim_config.gains.cross *= config.mean_link_gain;
    return run_x_sim(config, sim_config);
}

Scenario_result run_chain(const Scenario_config& config, std::uint64_t seed)
{
    const auto sim_config = sim_config_for<sim::Chain_config>(config, seed);
    const sim::Chain_result sim_result = config.scheme == "traditional"
                                             ? sim::run_chain_traditional(sim_config)
                                             : sim::run_chain_anc(sim_config);

    Scenario_result result;
    result.metrics = sim_result.metrics;
    result.series["ber_at_n2"] = sim_result.ber_at_n2;
    return result;
}

} // namespace

void register_builtin_scenarios(Scenario_registry& registry)
{
    registry.add({"alice_bob", {"traditional", "cope", "anc"}, run_alice_bob});
    registry.add({"x_topology", {"traditional", "cope", "anc"}, run_x_topology});
    registry.add({"chain", {"traditional", "anc"}, run_chain});
    registry.add({"alice_bob_fading", {"traditional", "cope", "anc"}, run_alice_bob_fading});
    registry.add(
        {"x_topology_fading", {"traditional", "cope", "anc"}, run_x_topology_fading});
}

} // namespace anc::engine
