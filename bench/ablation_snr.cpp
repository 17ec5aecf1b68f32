// Ablation: measured throughput gain vs SNR — the packet-level
// counterpart of Fig. 7's capacity story.
//
// Theory (Fig. 7) says amplify-and-forward loses to routing below ~8 dB
// because the relay amplifies its own noise.  A packet system falls off
// a cliff much earlier: once the post-relay SNR leaves the decoder's
// working range, ANC loses *packets* (pilot/header failures), not just
// rate.  This bench sweeps the operating SNR and reports where the
// practical system stops winning.
//
// Runs on the sweep engine: one grid over (topology x scheme x SNR),
// all cells in parallel.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"

namespace {

using namespace anc;
using namespace anc::engine;

/// Mean per-run gain of anc over traditional at one grid point, or 0
/// when the baseline delivered nothing (at the bottom of the SNR range
/// whole runs can fail).
double mean_gain(const std::vector<Task_result>& tasks, const Point_key& anc_key)
{
    Point_key traditional_key = anc_key;
    traditional_key.scheme = "traditional";
    const Cdf gains =
        paired_gain(tasks, anc_key, traditional_key, Baseline_policy::skip_failed);
    return gains.empty() ? 0.0 : gains.mean();
}

const Point_summary& point_at(const std::vector<Point_summary>& points,
                              const std::string& scenario, const std::string& scheme,
                              double snr_db)
{
    for (const Point_summary& point : points) {
        if (point.key.scenario == scenario && point.key.scheme == scheme
            && point.key.snr_db == snr_db)
            return point;
    }
    throw std::out_of_range{"ablation_snr: missing grid point"};
}

} // namespace

int main(int argc, char** argv)
{
    const bench::Driver_options options = bench::parse_driver_flags(
        argc, argv, {.repetitions = 6, .exchanges = 20});
    bench::print_header("Ablation", "measured ANC gain vs operating SNR");

    const std::size_t runs = options.repetitions;
    const std::size_t exchanges = options.exchanges;
    const std::vector<double> snrs{16.0, 18.0, 20.0, 22.0, 25.0, 30.0, 35.0};

    Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"alice_bob", "chain"};
    grid.schemes = {"anc", "traditional"};
    grid.snr_db = snrs;
    grid.exchanges = {exchanges};
    grid.repetitions = runs;

    const Executor_config exec = options.executor(8000);
    const Sweep_outcome outcome = bench::run_and_publish(options, grid, exec);
    bench::print_engine_note(outcome.tasks.size(), exec);

    std::printf("%8s %14s %12s %12s %14s %12s\n", "SNR(dB)", "AB gain", "AB deliv",
                "AB BER", "chain gain", "chain deliv");
    for (const double snr : snrs) {
        const Point_summary& ab = point_at(outcome.points, "alice_bob", "anc", snr);
        const Point_summary& chain = point_at(outcome.points, "chain", "anc", snr);
        std::printf("%8.0f %14.3f %12.2f %12.4f %14.3f %12.2f\n", snr,
                    mean_gain(outcome.tasks, ab.key), ab.delivery_rate.mean(),
                    ab.run_mean_ber.mean(), mean_gain(outcome.tasks, chain.key),
                    chain.delivery_rate.mean());
    }
    std::printf("\nAbove ~22 dB the gains sit at their asymptotes (Fig. 9/12); below\n"
                "~18 dB the Alice-Bob path collapses first — its effective SNR is cut\n"
                "by the relay's amplified noise, exactly the Fig. 7 mechanism, while\n"
                "the chain (which decodes at the collision point) survives longer.\n");
    return 0;
}
