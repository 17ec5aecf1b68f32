// Figure 13: BER vs Signal-to-Interference Ratio for decoding at Alice.
//
// Bob's transmit power varies while Alice's stays fixed; SIR is the
// received power of the *wanted* signal (Bob's) over the interfering one
// (Alice's own).  The paper's headline: the decoder still works at
// -3 dB SIR (BER < 5%), where classical interference cancellation needs
// +6 dB (§11.7).
//
// Run at 20 dB SNR — the bottom of the operating band — so the residual
// BER is visible; at 25+ dB the simulated decoder is error-free across
// the whole SIR range.
//
// Runs on the sweep engine: the SIR axis is a grid over Bob's transmit
// amplitude, executed in parallel across all points and repetitions.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "util/db.h"

int main(int argc, char** argv)
{
    using namespace anc;
    using namespace anc::engine;
    const bench::Driver_options options = bench::parse_driver_flags(
        argc, argv, {.repetitions = 10, .exchanges = 20});
    bench::print_header("Figure 13", "BER vs SIR for decoding at Alice");

    const std::size_t runs = options.repetitions;
    const std::size_t exchanges = options.exchanges;

    const std::vector<double> sir_points{-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0};
    Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"alice_bob"};
    grid.schemes = {"anc"};
    grid.snr_db = {20.0};
    grid.exchanges = {exchanges};
    grid.repetitions = runs;
    grid.bob_amplitudes.clear();
    for (const double sir_db : sir_points)
        grid.bob_amplitudes.push_back(amplitude_from_db(sir_db));

    const Executor_config exec = options.executor(4000);
    const Sweep_outcome outcome = bench::run_and_publish(options, grid, exec);
    bench::print_engine_note(outcome.tasks.size(), exec);
    // Tables read the leading profile's points (unique per scheme);
    // the JSON/CSV artifacts keep every profile's rows.
    const std::vector<Point_summary> table_points =
        bench::points_for_profile(outcome.points, grid.math_profiles.front());

    std::printf("%10s %12s %12s %12s\n", "SIR(dB)", "BER@Alice", "delivered", "BER p90");
    Cdf ber_at_minus3;
    Cdf ber_at_0;
    // Points come back in grid-axis order, i.e. ascending SIR.  A point
    // that delivered nothing prints n/a, never a number.
    for (std::size_t i = 0; i < table_points.size(); ++i) {
        const double sir_db = sir_points[i];
        const Cdf& ber = table_points[i].series.at("ber_at_alice");
        char mean[16] = "n/a";
        char p90[16] = "n/a";
        if (!ber.empty()) {
            std::snprintf(mean, sizeof mean, "%.4f", ber.mean());
            std::snprintf(p90, sizeof p90, "%.4f", ber.quantile(0.90));
        }
        std::printf("%10.1f %12s %9zu/%zu %12s\n", sir_db, mean, ber.count(),
                    exchanges * runs, p90);
        if (sir_db == -3.0)
            ber_at_minus3 = ber;
        if (sir_db == 0.0)
            ber_at_0 = ber;
    }

    std::printf("\nPaper vs measured:\n");
    bench::print_compare(bench::paper::ber_at_sir_minus_3db, bench::mean_of(ber_at_minus3));
    bench::print_compare(bench::paper::ber_at_sir_0db, bench::mean_of(ber_at_0));
    std::printf("  (classical blind separation needs SIR >= +6 dB, §11.7)\n");
    return 0;
}
