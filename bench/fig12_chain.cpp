// Figure 12: the chain topology (Fig. 2) with one unidirectional flow.
//   (a) CDF of ANC's per-run throughput gain over traditional routing
//       (COPE does not apply to unidirectional traffic);
//   (b) CDF of BER at node N2, which decodes the collision directly —
//       no amplify-and-forward, hence lower BER than Alice-Bob.
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
    bench::print_header("Figure 12", "chain topology: unidirectional flow");

    const std::size_t runs = options.repetitions;
    const std::size_t packets = options.exchanges;

    Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"chain"};
    grid.snr_db = {22.0};
    grid.exchanges = {packets};
    grid.repetitions = runs;

    const Executor_config exec = options.executor(3000);
    const Sweep_outcome outcome = bench::run_and_publish(options, grid, exec);
    bench::print_engine_note(outcome.tasks.size(), exec);
    // Tables read the leading profile's points (unique per scheme);
    // the JSON/CSV artifacts keep every profile's rows.
    const std::vector<Point_summary> table_points =
        bench::points_for_profile(outcome.points, grid.math_profiles.front());

    const Point_summary& anc_point = summary_for(table_points, "chain", "anc");
    const Cdf gain_over_traditional =
        paired_gain(outcome.tasks, table_points, "chain", "anc", "traditional");
    const Cdf& ber_at_n2 = anc_point.series.at("ber_at_n2");

    std::printf("(%zu runs x %zu packets, payload 2048 bits, SNR 22 dB)\n\n", runs,
                packets);
    bench::print_cdf("Fig 12(a): ANC gain over traditional", gain_over_traditional);
    std::printf("\n");
    bench::print_cdf("Fig 12(b): BER of interference decodes at N2", ber_at_n2);

    std::printf("\nPaper vs measured:\n");
    bench::print_compare("mean gain over traditional", 1.36, gain_over_traditional.mean());
    bench::print_compare("mean BER at N2 (vs ~4% on Alice-Bob)", 0.010, ber_at_n2.mean());
    return 0;
}
