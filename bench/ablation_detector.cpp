// Ablation: interference-detection threshold (§7.1; the scale-free
// reformulation is explained in src/phy/detector.h).
//
// The paper thresholds "variance of the energy > 20 dB"; our scale-free
// reformulation compares the measured energy variance with what a clean
// constant-envelope signal would show.  This bench sweeps the threshold
// and reports detection rate on real collisions and false-alarm rate on
// clean packets, across SNR.
//
// Runs on the sweep engine: the threshold is the grid's
// detector_thresholds_db axis (Scenario_config::detector_threshold_db),
// trials per cell (fixed at 200) are the exchanges axis, and the
// (threshold x SNR) grid executes on the engine's thread pool.
// --json and --metrics-json emit the sweep document and the run
// manifest.  The printed table is byte-identical to the bespoke
// pre-engine loop (tests/golden/ablation_detector.txt locks this in).

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "channel/awgn.h"
#include "channel/link.h"
#include "dsp/msk.h"
#include "engine/engine.h"
#include "phy/detector.h"
#include "util/bits.h"
#include "util/db.h"
#include "util/rng.h"

namespace {

using namespace anc;

dsp::Signal clean_packet(double snr_db, Pcg32& rng, dsp::Math_profile profile)
{
    const Bits bits = random_bits(1500, rng);
    const dsp::Msk_modulator modulator{1.0, rng.next_double() * 6.28};
    dsp::Signal signal;
    modulator.modulate_into(bits, signal);
    chan::Awgn noise{chan::noise_power_for_snr_db(snr_db), rng.fork(1), profile};
    noise.add_in_place(signal);
    return signal;
}

dsp::Signal collided_packet(double snr_db, double sir_db, Pcg32& rng,
                            dsp::Math_profile profile)
{
    const Bits bits_a = random_bits(1500, rng);
    const Bits bits_b = random_bits(1500, rng);
    const dsp::Msk_modulator mod_a{1.0, rng.next_double() * 6.28};
    const dsp::Msk_modulator mod_b{amplitude_from_db(-sir_db), rng.next_double() * 6.28};
    chan::Link_params drift;
    drift.phase_drift = 0.004;
    dsp::Signal mix;
    mod_a.modulate_into(bits_a, mix);
    dsp::Signal signal_b;
    mod_b.modulate_into(bits_b, signal_b);
    chan::Link_channel{drift}.apply_onto(signal_b, 300, mix);
    chan::Awgn noise{chan::noise_power_for_snr_db(snr_db), rng.fork(2), profile};
    noise.add_in_place(mix);
    return mix;
}

/// One (threshold, SNR) cell: `exchanges` detection trials against
/// synthetic clean and collided packets.  The cell seed is the
/// historical bench's threshold*100+snr formula — a pure function of
/// the config, preserved so the published table stays byte-stable
/// across the engine refactor (the engine-derived seed is unused).
engine::Scenario_result run_cell(const engine::Scenario_config& config, std::uint64_t)
{
    const double threshold = config.detector_threshold_db;
    const double snr = config.snr_db;
    const phy::Interference_detector detector{chan::noise_power_for_snr_db(snr), {threshold}};

    int detected_sir0 = 0;
    int detected_sir6 = 0;
    int false_alarms = 0;
    Pcg32 rng{static_cast<std::uint64_t>(threshold * 100 + snr)};
    const int trials = static_cast<int>(config.exchanges);
    for (int t = 0; t < trials; ++t) {
        detected_sir0 += detector
                             .analyze(collided_packet(snr, 0.0, rng,
                                                      config.math_profile))
                             .interfered;
        detected_sir6 += detector
                             .analyze(collided_packet(snr, 6.0, rng,
                                                      config.math_profile))
                             .interfered;
        false_alarms +=
            detector.analyze(clean_packet(snr, rng, config.math_profile)).interfered;
    }

    engine::Scenario_result out;
    out.metrics.packets_attempted = config.exchanges;
    out.scalars["detected_sir0"] = detected_sir0;
    out.scalars["detected_sir6"] = detected_sir6;
    out.scalars["false_alarms"] = false_alarms;
    return out;
}

const engine::Task_result& cell_at(const std::vector<engine::Task_result>& tasks,
                                   double threshold, double snr_db)
{
    for (const engine::Task_result& task : tasks) {
        if (task.task.config.detector_threshold_db == threshold
            && task.task.config.snr_db == snr_db)
            return task;
    }
    throw std::out_of_range{"ablation_detector: missing grid cell"};
}

} // namespace

int main(int argc, char** argv)
{
    using namespace anc;
    const bench::Driver_options options = bench::parse_driver_flags(argc, argv, {});
    bench::print_header("Ablation", "interference detector threshold sweep");

    const int trials = 200;
    const std::vector<double> thresholds{3.0, 6.0, 10.0, 14.0, 18.0};
    const std::vector<double> snrs{20.0, 25.0, 30.0};

    engine::Scenario_registry registry;
    registry.add({"ablation_detector", {"anc"}, run_cell});

    engine::Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"ablation_detector"};
    grid.detector_thresholds_db = thresholds;
    grid.snr_db = snrs;
    grid.exchanges = {static_cast<std::size_t>(trials)};

    const engine::Sweep_outcome outcome =
        bench::run_and_publish(options, grid, options.executor(), registry);
    const std::vector<engine::Task_result>& results = outcome.tasks;

    std::printf("%10s %8s %12s %12s %12s\n", "thresh(dB)", "SNR(dB)", "det@SIR0",
                "det@SIR6", "false alarm");
    for (const double threshold : thresholds) {
        for (const double snr : snrs) {
            const engine::Task_result& cell = cell_at(results, threshold, snr);
            std::printf("%10.0f %8.0f %11.1f%% %11.1f%% %11.1f%%\n", threshold, snr,
                        100.0 * cell.result.scalars.at("detected_sir0") / trials,
                        100.0 * cell.result.scalars.at("detected_sir6") / trials,
                        100.0 * cell.result.scalars.at("false_alarms") / trials);
        }
    }
    std::printf("\nDefault threshold is 10 dB: full detection across the operating\n"
                "band with zero false alarms (the paper's '20 dB' was stated for a\n"
                "non-normalized variance).\n");
    return 0;
}
