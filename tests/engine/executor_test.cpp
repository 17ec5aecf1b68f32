#include "engine/executor.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "engine/engine.h"
#include "util/rng.h"

#include "support/sweep_json.h"

namespace anc::engine {
namespace {

/// A cheap synthetic workload whose outputs depend on every config axis
/// and on the seed, so scheduling bugs show up as value differences.
Scenario synthetic(const std::string& name)
{
    return Scenario{
        name, {"anc", "traditional"},
        [](const Scenario_config& config, std::uint64_t seed) {
            Pcg32 rng{seed};
            Scenario_result result;
            result.metrics.packets_attempted = config.exchanges;
            result.metrics.packets_delivered = rng.next_in_range(
                0, static_cast<std::uint32_t>(config.exchanges));
            result.metrics.payload_bits_delivered =
                result.metrics.packets_delivered * config.payload_bits;
            result.metrics.airtime_symbols =
                config.snr_db * static_cast<double>(config.exchanges) + rng.next_double();
            for (std::size_t i = 0; i < result.metrics.packets_delivered; ++i)
                result.metrics.packet_ber.add(rng.next_double() * 0.05);
            result.series["aux"].add(rng.next_double());
            result.scalars["draws"] = static_cast<double>(seed % 1000);
            return result;
        }};
}

Scenario_registry make_synthetic_registry()
{
    Scenario_registry registry;
    registry.add(synthetic("synthetic_a"));
    registry.add(synthetic("synthetic_b"));
    return registry;
}

TEST(DeriveTaskSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(derive_task_seed(42, 7), derive_task_seed(42, 7));
    EXPECT_NE(derive_task_seed(42, 7), derive_task_seed(42, 8));
    EXPECT_NE(derive_task_seed(42, 7), derive_task_seed(43, 7));

    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 10000; ++i)
        seeds.insert(derive_task_seed(1, i));
    EXPECT_EQ(seeds.size(), 10000u);
}

TEST(ParallelExecutor, ThreadCountInvariantOnSyntheticSweep)
{
    // >= 100 tasks, compared byte-for-byte through the JSON emitter: the
    // aggregate must not depend on how many workers ran the sweep.
    const Scenario_registry registry = make_synthetic_registry();
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a", "synthetic_b"};
    grid.snr_db = {10.0, 20.0, 30.0};
    grid.payload_bits = {256, 512};
    grid.repetitions = 5;
    const std::vector<Sweep_task> tasks = expand(grid, registry);
    ASSERT_GE(tasks.size(), 100u);

    Executor_config serial;
    serial.threads = 1;
    serial.base_seed = 99;
    const std::vector<Task_result> reference = run_sweep(tasks, registry, serial);
    const std::string reference_json = test::sweep_json(reference, aggregate(reference));

    for (const std::size_t threads : {2u, 4u, 13u}) {
        Executor_config parallel = serial;
        parallel.threads = threads;
        const std::vector<Task_result> results = run_sweep(tasks, registry, parallel);
        EXPECT_EQ(test::sweep_json(results, aggregate(results)), reference_json)
            << "thread count " << threads << " changed the results";
    }
}

TEST(ParallelExecutor, ThreadCountInvariantOnRealTopologies)
{
    // The full path — real sample-level simulations through the builtin
    // registry — must also be bit-identical across thread counts.
    Sweep_grid grid;
    grid.scenarios = {"alice_bob", "chain"};
    grid.snr_db = {20.0, 25.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 10;
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_GE(tasks.size(), 100u); // (3 + 2 schemes) x 2 SNRs x 10 reps

    Executor_config serial;
    serial.threads = 1;
    serial.base_seed = 7;
    const Scenario_registry& registry = Scenario_registry::builtin();
    const std::vector<Task_result> reference = run_sweep(tasks, registry, serial);

    Executor_config parallel = serial;
    parallel.threads = 4;
    const std::vector<Task_result> results = run_sweep(tasks, registry, parallel);

    EXPECT_EQ(test::sweep_json(results, aggregate(results)),
              test::sweep_json(reference, aggregate(reference)));
}

TEST(ParallelExecutor, SeedsFollowSeedIndexNotSchedule)
{
    const Scenario_registry registry = make_synthetic_registry();
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a"};
    grid.repetitions = 16;
    Executor_config config;
    config.threads = 8;
    config.base_seed = 5;
    const std::vector<Task_result> results =
        run_sweep(expand(grid, registry), registry, config);
    ASSERT_EQ(results.size(), 32u);
    for (const Task_result& result : results)
        EXPECT_EQ(result.seed, derive_task_seed(5, result.task.seed_index));
}

TEST(ParallelExecutor, SchemesShareChannelRealizations)
{
    // The paired-run design: at a fixed (grid point, repetition) every
    // scheme must run with the SAME seed, so per-run gains compare the
    // two schemes over one channel realization.
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"};
    grid.snr_db = {22.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 3;
    Executor_config config;
    config.threads = 2;
    config.base_seed = 31;
    const std::vector<Task_result> results =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;
    ASSERT_EQ(results.size(), 9u); // 3 schemes x 3 repetitions

    std::map<std::size_t, std::set<std::uint64_t>> seeds_by_repetition;
    for (const Task_result& result : results)
        seeds_by_repetition[result.task.repetition].insert(result.seed);
    ASSERT_EQ(seeds_by_repetition.size(), 3u);
    std::set<std::uint64_t> across_repetitions;
    for (const auto& [repetition, seeds] : seeds_by_repetition) {
        EXPECT_EQ(seeds.size(), 1u) << "schemes diverged at repetition " << repetition;
        across_repetitions.insert(*seeds.begin());
    }
    EXPECT_EQ(across_repetitions.size(), 3u); // but repetitions stay independent
}

TEST(ParallelExecutor, ProgressReachesTotal)
{
    const Scenario_registry registry = make_synthetic_registry();
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a"};
    grid.repetitions = 10;
    Executor_config config;
    config.threads = 4;
    std::size_t last = 0;
    std::size_t calls = 0;
    config.on_progress = [&](std::size_t done, std::size_t total) {
        EXPECT_LE(done, total);
        last = std::max(last, done);
        ++calls;
    };
    const std::vector<Task_result> results =
        run_sweep(expand(grid, registry), registry, config);
    EXPECT_EQ(last, results.size());
    EXPECT_EQ(calls, results.size());
}

TEST(ParallelExecutor, ScenarioExceptionPropagates)
{
    Scenario_registry registry;
    registry.add(Scenario{
        "exploding", {"anc"},
        [](const Scenario_config&, std::uint64_t seed) -> Scenario_result {
            if (seed % 2 == 0 || seed % 2 == 1) // always
                throw std::runtime_error{"boom"};
            return {};
        }});
    Sweep_grid grid;
    grid.scenarios = {"exploding"};
    grid.repetitions = 8;
    Executor_config config;
    config.threads = 4;
    EXPECT_THROW(run_sweep(expand(grid, registry), registry, config),
                 std::runtime_error);
}

TEST(RunGrid, AggregatesPerPoint)
{
    const Scenario_registry registry = make_synthetic_registry();
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a"};
    grid.schemes = {"anc"};
    grid.snr_db = {10.0, 20.0};
    grid.repetitions = 6;
    Executor_config config;
    config.threads = 3;
    const Sweep_outcome outcome = run_grid(grid, registry, config);
    ASSERT_EQ(outcome.tasks.size(), 12u);
    ASSERT_EQ(outcome.points.size(), 2u);
    EXPECT_EQ(outcome.points[0].runs, 6u);
    EXPECT_DOUBLE_EQ(outcome.points[0].key.snr_db, 10.0);
    EXPECT_DOUBLE_EQ(outcome.points[1].key.snr_db, 20.0);
    EXPECT_EQ(outcome.points[0].throughput.count(), 6u);
    EXPECT_EQ(outcome.points[0].series.at("aux").count(), 6u);
}

} // namespace
} // namespace anc::engine
