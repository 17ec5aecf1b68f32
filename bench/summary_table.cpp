// §11.3 "Summary of Results": every headline number of the evaluation in
// one table, paper vs measured.
//
// Runs on the sweep engine as one grid over all three topologies and
// every scheme (plus a low-SIR Alice-Bob point), executed in parallel.
// --json and --metrics-json publish the main grid.

#include <cstdio>

#include "bench_util.h"
#include "engine/engine.h"
#include "util/db.h"

int main(int argc, char** argv)
{
    using namespace anc;
    using namespace anc::engine;
    const bench::Driver_options options = bench::parse_driver_flags(
        argc, argv, {.repetitions = 10, .exchanges = 20});
    bench::print_header("Summary", "§11.3 headline results, paper vs measured");

    const std::size_t runs = options.repetitions;
    const std::size_t exchanges = options.exchanges;

    // All three topologies under every scheme at the 22 dB operating point.
    Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"alice_bob", "x_topology", "chain"};
    grid.snr_db = {22.0};
    grid.exchanges = {exchanges};
    grid.repetitions = runs;
    const Executor_config exec = options.executor(100);
    const Sweep_outcome outcome = bench::run_and_publish(options, grid, exec);

    // The SIR-robustness headline needs a second operating point: Bob
    // 3 dB under Alice at 25 dB SNR.
    Sweep_grid sir_grid = grid;
    sir_grid.scenarios = {"alice_bob"};
    sir_grid.schemes = {"anc"};
    sir_grid.snr_db = {25.0};
    sir_grid.bob_amplitudes = {amplitude_from_db(-3.0)};
    // Printed only: a document merging both grids would repeat task
    // indices.
    const Executor_config sir_exec = options.executor(400);
    const Sweep_outcome sir_outcome =
        run_grid(sir_grid, Scenario_registry::builtin(), sir_exec);

    bench::print_engine_note(outcome.tasks.size(), exec);
    bench::print_engine_note(sir_outcome.tasks.size(), sir_exec);

    // The table reads the leading profile's points/tasks (unique per
    // scheme); the JSON/CSV artifacts keep every profile's rows.
    const dsp::Math_profile table_profile = grid.math_profiles.front();
    const std::vector<Point_summary> table_points =
        bench::points_for_profile(outcome.points, table_profile);

    const auto gain = [&](const char* scenario, const char* baseline) {
        return bench::mean_of(
            paired_gain(outcome.tasks, table_points, scenario, "anc", baseline));
    };

    // Mean of per-run means (each run weighted equally, like the
    // original hand-rolled loops), not the pooled per-packet mean.
    const auto per_run_series_mean = [table_profile](
                                         const std::vector<Task_result>& tasks,
                                         const char* scenario, const char* series) {
        Cdf means;
        for (const Task_result& task : tasks) {
            if (task.task.scenario != scenario || task.task.config.scheme != "anc"
                || task.task.config.math_profile != table_profile)
                continue;
            const Cdf& samples = task.result.series.at(series);
            if (!samples.empty())
                means.add(samples.mean());
        }
        return bench::mean_of(means, "mean of run means");
    };

    const Point_summary& ab = summary_for(table_points, "alice_bob", "anc");

    std::printf("(%zu runs x %zu packets each, payload 2048 bits)\n\n", runs, exchanges);
    std::printf("Paper vs measured:\n");
    bench::print_compare(bench::paper::alice_bob_gain_over_traditional,
                         gain("alice_bob", "traditional"));
    bench::print_compare(bench::paper::alice_bob_gain_over_cope, gain("alice_bob", "cope"));
    bench::print_compare(bench::paper::alice_bob_ber,
                         bench::mean_of(ab.run_mean_ber, "mean of run means"));
    bench::print_compare(bench::paper::alice_bob_overlap,
                         bench::mean_of(ab.run_mean_overlap, "mean of run means"));
    bench::print_compare(bench::paper::x_gain_over_traditional,
                         gain("x_topology", "traditional"));
    bench::print_compare(bench::paper::x_gain_over_cope, gain("x_topology", "cope"));
    bench::print_compare(bench::paper::chain_gain_over_traditional,
                         gain("chain", "traditional"));
    bench::print_compare(bench::paper::chain_ber_at_n2,
                         per_run_series_mean(outcome.tasks, "chain", "ber_at_n2"));
    bench::print_compare(bench::paper::ber_at_sir_minus_3db,
                         per_run_series_mean(sir_outcome.tasks, "alice_bob", "ber_at_alice"));
    return 0;
}
