// Figure 10: the "X" topology (Fig. 11), 40 runs.
//   (a) CDF of ANC's per-run throughput gain over traditional routing and
//       over COPE;
//   (b) CDF of per-packet BER — with the heavier tail caused by packets
//       whose overhearing failed (§11.5).
//
// Runs on the sweep engine (see fig09 for the engine knobs).

#include <cstdio>

#include "bench_util.h"
#include "engine/engine.h"

int main(int argc, char** argv)
{
    using namespace anc;
    using namespace anc::engine;
    const bench::Driver_options options = bench::parse_driver_flags(
        argc, argv, {.repetitions = 40, .exchanges = 20});
    bench::print_header("Figure 10", "X topology: gains with overheard packets");

    const std::size_t runs = options.repetitions;
    const std::size_t exchanges = options.exchanges;

    Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"x_topology"};
    grid.schemes = {"traditional", "cope", "anc"};
    grid.snr_db = {22.0};
    grid.exchanges = {exchanges};
    grid.repetitions = runs;

    const Executor_config exec = options.executor(2000);
    const Sweep_outcome outcome = bench::run_and_publish(options, grid, exec);
    bench::print_engine_note(outcome.tasks.size(), exec);
    // Tables read the leading profile's points (unique per scheme);
    // the JSON/CSV artifacts keep every profile's rows.
    const std::vector<Point_summary> table_points =
        bench::points_for_profile(outcome.points, grid.math_profiles.front());

    const Point_summary& anc_point = summary_for(table_points, "x_topology", "anc");
    const Cdf gain_over_traditional =
        paired_gain(outcome.tasks, table_points, "x_topology", "anc", "traditional");
    const Cdf gain_over_cope =
        paired_gain(outcome.tasks, table_points, "x_topology", "anc", "cope");
    const auto overhear_attempts =
        static_cast<std::size_t>(anc_point.scalars.at("overhear_attempts"));
    const auto overhear_failures =
        static_cast<std::size_t>(anc_point.scalars.at("overhear_failures"));

    std::printf("(%zu runs x %zu packet pairs, payload 2048 bits, SNR 22 dB)\n\n",
                runs, exchanges);
    bench::print_cdf("Fig 10(a): ANC gain over traditional", gain_over_traditional);
    std::printf("\n");
    bench::print_cdf("Fig 10(a): ANC gain over COPE", gain_over_cope);
    std::printf("\n");
    bench::print_cdf("Fig 10(b): per-packet BER of ANC decodes",
                     anc_point.totals.packet_ber);
    std::printf("\nOverhearing under interference: %zu/%zu failed (%.1f%%)\n",
                overhear_failures, overhear_attempts,
                overhear_attempts
                    ? 100.0 * static_cast<double>(overhear_failures)
                          / static_cast<double>(overhear_attempts)
                    : 0.0);

    std::printf("\nPaper vs measured:\n");
    bench::print_compare(bench::paper::x_gain_over_traditional,
                         bench::mean_of(gain_over_traditional));
    bench::print_compare(bench::paper::x_gain_over_cope, bench::mean_of(gain_over_cope));
    return 0;
}
