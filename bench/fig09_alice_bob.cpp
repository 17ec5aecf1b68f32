// Figure 9: the Alice-Bob topology (Fig. 1), 40 runs.
//   (a) CDF of ANC's per-run throughput gain over traditional routing and
//       over COPE-style digital network coding;
//   (b) CDF of per-packet BER for ANC-decoded packets.
//
// Operating point: 22 dB SNR — inside the paper's 20-40 dB WLAN band, at
// the lower end so that the relay's amplified noise (the mechanism behind
// the paper's 2-4% BER) is visible above the decoder's own error floor.
//
// Runs on the sweep engine: one grid over the three schemes, executed
// across all cores.  Flags (bench_util.h): --repetitions, --exchanges,
// --threads, --math-profile, and --json / --metrics-json for
// machine-readable results.

#include <cstdio>

#include "bench_util.h"
#include "engine/engine.h"

int main(int argc, char** argv)
{
    using namespace anc;
    using namespace anc::engine;
    const bench::Driver_options options = bench::parse_driver_flags(
        argc, argv, {.repetitions = 40, .exchanges = 20});
    bench::print_header("Figure 9", "Alice-Bob topology: throughput gains and BER");

    const std::size_t runs = options.repetitions;
    const std::size_t exchanges = options.exchanges;

    Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"alice_bob"};
    grid.schemes = {"traditional", "cope", "anc"};
    grid.snr_db = {22.0};
    grid.exchanges = {exchanges};
    grid.repetitions = runs;

    const Executor_config exec = options.executor(1000);
    const Sweep_outcome outcome = bench::run_and_publish(options, grid, exec);
    bench::print_engine_note(outcome.tasks.size(), exec);
    // Tables read the leading profile's points (unique per scheme);
    // the JSON/CSV artifacts keep every profile's rows.
    const std::vector<Point_summary> table_points =
        bench::points_for_profile(outcome.points, grid.math_profiles.front());

    const Point_summary& anc_point = summary_for(table_points, "alice_bob", "anc");
    const Cdf gain_over_traditional =
        paired_gain(outcome.tasks, table_points, "alice_bob", "anc", "traditional");
    const Cdf gain_over_cope =
        paired_gain(outcome.tasks, table_points, "alice_bob", "anc", "cope");
    const Cdf& packet_ber = anc_point.totals.packet_ber;
    const Cdf& overlaps = anc_point.run_mean_overlap;

    std::printf("(%zu runs x %zu packet pairs, payload 2048 bits, SNR 22 dB)\n\n",
                runs, exchanges);
    bench::print_cdf("Fig 9(a): ANC gain over traditional", gain_over_traditional);
    std::printf("\n");
    bench::print_cdf("Fig 9(a): ANC gain over COPE", gain_over_cope);
    std::printf("\n");
    bench::print_cdf("Fig 9(b): per-packet BER of ANC decodes", packet_ber);

    std::printf("\nPaper vs measured:\n");
    bench::print_compare(bench::paper::alice_bob_gain_over_traditional,
                         bench::mean_of(gain_over_traditional));
    bench::print_compare(bench::paper::alice_bob_gain_over_cope, bench::mean_of(gain_over_cope));
    bench::print_compare(bench::paper::alice_bob_ber, bench::p90_of(packet_ber));
    bench::print_compare(bench::paper::alice_bob_overlap,
                         bench::mean_of(overlaps, "mean of run means"));
    return 0;
}
