// Aggregation of sweep results into per-grid-point summaries.
//
// A "point" is everything the grid varies except the repetition axis;
// `aggregate` pools the repetitions of each point into per-run
// distributions (throughput, delivery, ...) plus merged packet-level
// samples.  Points keep first-appearance order, which for tasks coming
// out of `expand` is exactly the grid's axis order — so aggregation is
// as deterministic as the task list itself.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "engine/executor.h"

namespace anc::engine {

/// A grid point: the task identity minus the repetition axis, i.e. its
/// scenario plus its config.  Fast and exact rows aggregate into
/// distinct points (never mixed).
struct Point_key : Scenario_config {
    std::string scenario;

    friend auto operator<=>(const Point_key&, const Point_key&) = default;
};

Point_key key_of(const Sweep_task& task);

struct Point_summary {
    Point_key key;
    std::size_t runs = 0;   ///< tasks that completed ok (samples below)
    std::size_t errors = 0; ///< tasks isolated as Task_status::error

    // One sample per run:
    Cdf throughput;
    Cdf raw_throughput;
    Cdf delivery_rate;
    Cdf run_mean_ber;
    Cdf run_mean_overlap;

    // Pooled across runs:
    sim::Run_metrics totals;             ///< merged counters + packet samples
    std::map<std::string, Cdf> series;   ///< scenario-specific series, pooled
    std::map<std::string, double> scalars; ///< scenario-specific counters, summed
};

/// Group task results by point, first-appearance order.  Tasks that did
/// not complete ok contribute no samples: errored tasks only bump their
/// point's `errors` count, skipped (drained) tasks are ignored entirely
/// — so a cancelled run aggregates exactly its completed prefix.
std::vector<Point_summary> aggregate(const std::vector<Task_result>& results);

/// The incremental form of `aggregate`, for streaming sweeps that never
/// materialize the task vector: feed results one at a time (task-index
/// order, exactly as Executor_config::on_result delivers them) and take
/// the summaries at the end.  `aggregate` is this class run in a loop,
/// so batch and streaming aggregation are byte-identical by
/// construction.
class Aggregator {
public:
    void add(const Task_result& result);

    /// The summaries accumulated so far (first-appearance point order).
    std::vector<Point_summary> take() { return std::move(summaries_); }

private:
    std::vector<Point_summary> summaries_;
    std::map<Point_key, std::size_t> index_; // key -> slot
};

/// The unique summary for (scenario, scheme); throws std::out_of_range
/// when absent and std::invalid_argument when ambiguous — on a
/// multi-point grid, match the full Point_key yourself (see
/// bench/ablation_snr.cpp).
const Point_summary& summary_for(const std::vector<Point_summary>& summaries,
                                 const std::string& scenario,
                                 const std::string& scheme);

/// What to do with a repetition whose baseline run delivered nothing
/// (zero throughput): `strict` throws std::domain_error, while
/// `skip_failed` drops that repetition from the CDF (useful at the
/// bottom of the SNR range where whole runs can fail).
enum class Baseline_policy { strict, skip_failed };

/// Per-repetition throughput ratio of `scheme_key` runs over
/// `baseline_key` runs (repetition r of one paired with repetition r of
/// the other; with scheme-collapsed seeding both saw the same channel
/// realization) — the paper's per-run "gain" CDF.  Throws
/// std::invalid_argument when the two points have different run counts.
Cdf paired_gain(const std::vector<Task_result>& results, const Point_key& scheme_key,
                const Point_key& baseline_key,
                Baseline_policy policy = Baseline_policy::strict);

/// Convenience for single-point-per-scheme grids (every fig bench):
/// the per-run gain CDF of `scenario`'s `scheme` point over the same
/// point under `baseline_scheme`.
Cdf paired_gain(const std::vector<Task_result>& results,
                const std::vector<Point_summary>& summaries,
                const std::string& scenario, const std::string& scheme,
                const std::string& baseline_scheme,
                Baseline_policy policy = Baseline_policy::strict);

} // namespace anc::engine
