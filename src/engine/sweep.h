// Sweep grids: declarative parameter axes expanded into a task list.
//
// A grid is the cartesian product of its axes (scenario x scheme x
// snr_db x amplitudes x payload_bits x exchanges) times `repetitions`
// independent runs per point.  Expansion assigns every task a stable
// `index` — its position in the product, independent of how the tasks
// are later scheduled — which is what the executor derives seeds from.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/scenario.h"

namespace anc::engine {

struct Sweep_grid {
    /// Registry names; must be non-empty and resolvable at expansion.
    std::vector<std::string> scenarios;
    /// Empty means "every scheme the scenario declares".  A non-empty
    /// list is intersected with each scenario's schemes (so {"cope"} on
    /// the chain contributes nothing); a listed scheme supported by no
    /// scenario in the grid is an error.
    std::vector<std::string> schemes;
    std::vector<double> snr_db = {25.0};
    std::vector<double> alice_amplitudes = {1.0};
    std::vector<double> bob_amplitudes = {1.0};
    std::vector<std::size_t> payload_bits = {2048};
    std::vector<std::size_t> exchanges = {25};
    /// Interference-detector variance threshold (the detector ablation);
    /// lands in Scenario_config::receiver.interference_detector.
    std::vector<double> detector_thresholds_db = {10.0};
    /// Application-layer FEC interleaver depth (0 = off; the FEC ablation).
    std::vector<std::size_t> interleave_rows = {0};
    /// Fading axes for the *_fading scenarios: samples per Rayleigh
    /// coherence block, and the multiplier on every topology link gain.
    std::vector<std::size_t> coherence_blocks = {4096};
    std::vector<double> mean_link_gains = {1.0};
    /// Math profiles to run (dsp/math_profile.h): exact and/or fast.
    /// Like the scheme axis, this axis is *seed-collapsed*: tasks
    /// differing only in profile share a seed_index, so relaxed-profile
    /// and `exact` points see identical channel realizations and the
    /// corridor comparison is paired.
    std::vector<dsp::Math_profile> math_profiles = {dsp::Math_profile::exact};
    /// Independent runs per grid point (the paper repeats 40x).
    std::size_t repetitions = 1;
};

struct Sweep_task {
    std::size_t index = 0; ///< position in the expanded grid
    /// Position in the scheme-collapsed grid: tasks that differ only in
    /// scheme share a seed_index, so the executor gives every scheme at
    /// a given (point, repetition) the SAME channel realization — the
    /// paper's paired-run design, which keeps per-run gain CDFs tight.
    std::size_t seed_index = 0;
    std::string scenario;
    Scenario_config config;
    std::size_t repetition = 0; ///< 0 .. repetitions-1 within this grid point
};

/// Expands the grid in axis order scenario > scheme > math_profile >
/// snr_db > alice_amplitude > bob_amplitude > payload_bits > exchanges >
/// detector_threshold_db > interleave_rows > coherence_block >
/// mean_link_gain > repetition.  Throws std::invalid_argument on an
/// empty axis, an axis that repeats a value, an unknown scenario, or a
/// requested scheme no scenario supports.
std::vector<Sweep_task> expand(const Sweep_grid& grid, const Scenario_registry& registry);

/// The deterministic shard partition: tasks whose expansion position
/// satisfies `index % shard_count == shard_index - 1` (shards are
/// 1-based, `--shard 2/3` style).  Round-robin, so every shard sees a
/// balanced mix of grid points instead of a contiguous block of the
/// most expensive axis.  Tasks keep their GLOBAL index and seed_index —
/// a shard's results slot straight back into the full grid on merge.
/// Throws std::invalid_argument unless 1 <= shard_index <= shard_count.
std::vector<Sweep_task> shard_tasks(const std::vector<Sweep_task>& tasks,
                                    std::size_t shard_index, std::size_t shard_count);

/// Canonical JSON serialization of a grid — every axis in declaration
/// order, doubles in fixed round-trip format.  Embedded in the
/// anc.metrics.v1 manifest and hashed into the journal header (the
/// grid fingerprint that stops a resume or merge from mixing
/// incompatible grids).
std::string grid_to_json(const Sweep_grid& grid);

} // namespace anc::engine
