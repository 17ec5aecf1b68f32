// Scenario registry: a uniform interface over the topology runners.
//
// Every evaluation in the paper (Figs. 9, 10, 12, 13 and the ablations)
// is "run a topology under a scheme at an operating point, many times,
// and aggregate".  A `Scenario` abstracts one topology (Alice-Bob, X,
// chain) behind a name, a declared set of schemes (its config schema),
// and a pure `run(config, seed)` entry point, so the sweep engine can
// expand grids over scenarios without knowing any topology's concrete
// config struct.
//
// Scenarios must be *pure*: all randomness flows from the seed argument,
// and `run` must be safe to call concurrently from many threads (no
// mutable shared state).  Every builtin runner already satisfies this.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/anc_receiver.h"
#include "dsp/math_profile.h"
#include "sim/metrics.h"
#include "util/obs.h"
#include "util/stats.h"

namespace anc::engine {

/// The uniform operating point handed to every scenario.  Axes a given
/// topology does not support (e.g. per-sender amplitudes on the chain)
/// are ignored by that scenario.
struct Scenario_config {
    std::string scheme = "anc"; // one of Scenario::schemes()
    std::size_t payload_bits = 2048;
    std::size_t exchanges = 25; // packet pairs (or packets) per run
    double snr_db = 25.0;
    double alice_amplitude = 1.0;
    double bob_amplitude = 1.0;
    /// Receiver knobs, handed to every receiver a scenario builds.  The
    /// default equals Anc_receiver_config{}, so grids that do not touch
    /// it reproduce historical results bit-for-bit.  The grid's
    /// detector_thresholds_db axis lands in
    /// receiver.interference_detector.variance_threshold_db.
    Anc_receiver_config receiver{};
    /// Application-layer FEC for scenarios that support it (the FEC
    /// ablation): Hamming(7,4) across this interleaver depth; 0 = off.
    std::size_t fec_interleave_rows = 0;
    /// Fading axes, honored by the *_fading scenarios: samples per
    /// Rayleigh coherence block, and a multiplier on every topology
    /// link gain (mean amplitude; mean *power* scales by its square).
    std::size_t coherence_block = 4096;
    double mean_link_gain = 1.0;
    /// Math profile the whole run executes under (dsp/math_profile.h):
    /// `exact` (default) is byte-identical to the historical runs;
    /// `fast` trades bit-exactness for the polynomial/counter-noise
    /// kernels (on the runtime-dispatched lane kernels, byte-identical
    /// on every machine) and is validated by the statistical corridor
    /// tests.  Every emitted row is tagged with this value so relaxed-profile results
    /// are never silently mixed with exact ones.
    dsp::Math_profile math_profile = dsp::Math_profile::exact;
};

/// What one run produces: the standard metrics plus named auxiliary
/// sample series (per-packet BER at a specific node, ...) and scalar
/// counters (overhear failures, ...).  Keyed maps keep the engine
/// topology-agnostic while letting drivers reach scenario specifics.
struct Scenario_result {
    sim::Run_metrics metrics;
    std::map<std::string, Cdf> series;
    std::map<std::string, double> scalars;
    /// Telemetry captured while the task ran (empty unless the executor
    /// ran with `Executor_config::telemetry` set).  Deliberately *not*
    /// part of `scalars`: the sweep emitters never read it, so enabling
    /// collection cannot change a byte of the sweep JSON/CSV outputs.
    obs::Task_telemetry telemetry;
};

/// One topology behind a name: its schemes (the config schema, in
/// canonical order) and the function that runs it.  The builtins and the
/// drivers' and tests' synthetic workloads are all values of this type.
class Scenario {
public:
    using Run_fn = std::function<Scenario_result(const Scenario_config&, std::uint64_t)>;

    /// Throws std::invalid_argument for an empty run function or scheme
    /// list.
    Scenario(std::string name, std::vector<std::string> schemes, Run_fn run);

    const std::string& name() const { return name_; }
    const std::vector<std::string>& schemes() const { return schemes_; }
    bool supports_scheme(std::string_view scheme) const;

    /// Execute one run.  Throws std::invalid_argument for a scheme not in
    /// schemes().  Deterministic in (config, seed) and thread-safe
    /// whenever the run function is.
    Scenario_result run(const Scenario_config& config, std::uint64_t seed) const;

private:
    std::string name_;
    std::vector<std::string> schemes_;
    Run_fn run_;
};

/// Name -> scenario lookup.  Registration of a duplicate name throws;
/// the builtin registry carries the five builtin scenarios.
class Scenario_registry {
public:
    /// Throws std::invalid_argument when the name is already taken.
    void add(Scenario scenario);

    /// nullptr when absent.  Pointers and references into the registry
    /// stay valid until the next add.
    const Scenario* find(std::string_view name) const;

    /// Throws std::out_of_range when absent.
    const Scenario& at(std::string_view name) const;

    /// Registered names in registration order.
    std::vector<std::string> names() const;

    std::size_t size() const { return scenarios_.size(); }

    /// The process-wide registry of builtin scenarios ("alice_bob",
    /// "x_topology", "chain", "alice_bob_fading", "x_topology_fading" —
    /// SCENARIOS.md is the catalog), built once on first use.
    static const Scenario_registry& builtin();

private:
    std::vector<Scenario> scenarios_;
};

/// Registers the builtin topology runners (fixed-gain and fading) into
/// `registry` (exposed so tests can build private registries that
/// mirror the builtin one).
void register_builtin_scenarios(Scenario_registry& registry);

} // namespace anc::engine
