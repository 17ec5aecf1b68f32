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

    const auto gain_mean = [&](const char* scenario, const char* baseline) {
        return paired_gain(outcome.tasks, table_points, scenario, "anc", baseline)
            .mean();
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
        return means;
    };

    const Point_summary& ab = summary_for(table_points, "alice_bob", "anc");
    const Cdf chain_ber = per_run_series_mean(outcome.tasks, "chain", "ber_at_n2");
    const Cdf sir_ber =
        per_run_series_mean(sir_outcome.tasks, "alice_bob", "ber_at_alice");

    std::printf("(%zu runs x %zu packets each, payload 2048 bits)\n\n", runs, exchanges);
    std::printf("%-48s %8s %8s\n", "metric", "paper", "measured");
    std::printf("--------------------------------------------------------------------\n");
    const auto row = [](const char* name, double paper, double measured) {
        std::printf("%-48s %8.3f %8.3f\n", name, paper, measured);
    };
    // A series with no samples prints n/a, never a number a corridor
    // could mistake for a perfect (zero) BER.
    const auto mean_row = [](const char* name, double paper, const Cdf& measured) {
        if (measured.empty())
            std::printf("%-48s %8.3f %8s\n", name, paper, "n/a");
        else
            std::printf("%-48s %8.3f %8.3f\n", name, paper, measured.mean());
    };
    row("Alice-Bob: ANC gain over traditional", 1.70, gain_mean("alice_bob", "traditional"));
    row("Alice-Bob: ANC gain over COPE", 1.30, gain_mean("alice_bob", "cope"));
    mean_row("Alice-Bob: mean ANC BER", 0.04, ab.run_mean_ber);
    mean_row("Alice-Bob: mean packet overlap", 0.80, ab.run_mean_overlap);
    row("X: ANC gain over traditional", 1.65, gain_mean("x_topology", "traditional"));
    row("X: ANC gain over COPE", 1.28, gain_mean("x_topology", "cope"));
    row("Chain: ANC gain over traditional", 1.36, gain_mean("chain", "traditional"));
    mean_row("Chain: mean BER at N2", 0.015, chain_ber);
    mean_row("BER at SIR -3 dB (decoding at Alice)", 0.05, sir_ber);
    return 0;
}
