// The executor's fault-tolerance surface: task isolation, bounded
// retry, ordered streaming emission, cancellation, and the shard/merge
// partition — every guarantee `anc_sweep --stream/--shard/--resume`
// builds on (ENGINE.md "Fault tolerance").

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/emit.h"
#include "engine/engine.h"
#include "util/rng.h"

#include "support/sweep_json.h"

namespace anc::engine {
namespace {

/// Deterministic synthetic workload (same shape as executor_test's).
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
                config.snr_db + rng.next_double();
            for (std::size_t i = 0; i < 4; ++i)
                result.metrics.packet_ber.add(rng.next_double() * 0.05);
            result.series["aux"].add(rng.next_double());
            result.scalars["draws"] = static_cast<double>(seed % 1000);
            return result;
        }};
}

/// Throws on every task whose seed is odd; succeeds on even seeds.  The
/// throw is a std::runtime_error, or the bare seed when `non_std`.
Scenario half_exploding(bool non_std = false)
{
    return Scenario{
        "half_exploding", {"anc"},
        [non_std](const Scenario_config& config, std::uint64_t seed) {
            if (seed % 2 == 1 && non_std)
                throw seed;
            if (seed % 2 == 1)
                throw std::runtime_error{"odd seed " + std::to_string(seed)};
            Scenario_result result;
            result.metrics.packets_attempted = config.exchanges;
            result.metrics.packets_delivered = config.exchanges;
            result.metrics.packet_ber.add(0.01);
            return result;
        }};
}

TEST(FaultIsolation, ErrorsBecomeRowsNotAborts)
{
    // A std::exception's what() becomes the row's error; anything else
    // thrown reads "unknown exception".
    for (const bool non_std : {false, true}) {
        SCOPED_TRACE(non_std ? "non-std throw" : "std::exception");
        Scenario_registry registry;
        registry.add(half_exploding(non_std));
        Sweep_grid grid;
        grid.scenarios = {"half_exploding"};
        grid.repetitions = 32;

        Executor_config config;
        config.threads = 4;
        config.base_seed = 3;
        config.isolate_faults = true;
        Run_tally tally;
        const std::vector<Task_result> results =
            run_sweep(expand(grid, registry), registry, config, &tally);

        ASSERT_EQ(results.size(), 32u);
        std::size_t ok = 0, errors = 0;
        for (const Task_result& result : results) {
            if (result.status == Task_status::error) {
                ++errors;
                if (non_std)
                    EXPECT_EQ(result.error, "unknown exception");
                else
                    EXPECT_NE(result.error.find("odd seed"), std::string::npos);
                EXPECT_EQ(result.attempts, 1u);
                // No partial state escapes a failed task.
                EXPECT_EQ(result.result.metrics.packets_attempted, 0u);
            } else {
                ASSERT_EQ(result.status, Task_status::ok);
                ++ok;
            }
        }
        EXPECT_GT(ok, 0u);
        EXPECT_GT(errors, 0u);
        EXPECT_EQ(tally.ok, ok);
        EXPECT_EQ(tally.errors, errors);
        EXPECT_FALSE(tally.cancelled);

        // Errored tasks bump the point's error count but contribute no
        // samples.
        const std::vector<Point_summary> points = aggregate(results);
        ASSERT_EQ(points.size(), 1u);
        EXPECT_EQ(points[0].runs, ok);
        EXPECT_EQ(points[0].errors, errors);
        EXPECT_EQ(points[0].throughput.count(), ok);
    }
}

TEST(FaultIsolation, WithoutIsolationFirstErrorStillThrows)
{
    Scenario_registry registry;
    registry.add(half_exploding());
    Sweep_grid grid;
    grid.scenarios = {"half_exploding"};
    grid.repetitions = 32;
    Executor_config config;
    config.threads = 4;
    config.base_seed = 3; // historical behavior is the default
    EXPECT_THROW(run_sweep(expand(grid, registry), registry, config),
                 std::runtime_error);
}

TEST(FaultIsolation, BoundedRetryRecoversTransientFaults)
{
    // Every task throws on its first attempt and succeeds on the second
    // — the retry must re-run with the SAME seed.
    std::mutex mutex;
    std::map<std::uint64_t, int> calls;
    Scenario_registry registry;
    registry.add(Scenario{
        "flaky", {"anc"},
        [&](const Scenario_config&, std::uint64_t seed) {
            {
                const std::lock_guard<std::mutex> lock{mutex};
                if (++calls[seed] == 1)
                    throw std::runtime_error{"transient"};
            }
            Scenario_result result;
            result.metrics.packets_attempted = 1;
            result.metrics.packets_delivered = 1;
            result.scalars["seed_echo"] = static_cast<double>(seed % 4096);
            return result;
        }});
    Sweep_grid grid;
    grid.scenarios = {"flaky"};
    grid.repetitions = 16;

    Executor_config config;
    config.threads = 4;
    config.isolate_faults = true;
    config.max_attempts = 2;
    Run_tally tally;
    const std::vector<Task_result> results =
        run_sweep(expand(grid, registry), registry, config, &tally);

    EXPECT_EQ(tally.ok, 16u);
    EXPECT_EQ(tally.errors, 0u);
    for (const Task_result& result : results) {
        EXPECT_EQ(result.status, Task_status::ok);
        EXPECT_EQ(result.attempts, 2u);
    }

    // With only one attempt allowed, the same workload errors out.
    calls.clear();
    config.max_attempts = 1;
    run_sweep(expand(grid, registry), registry, config, &tally);
    EXPECT_EQ(tally.errors, 16u);
}

TEST(StreamingEmission, OnResultDeliversStrictIndexOrder)
{
    Scenario_registry registry;
    registry.add(synthetic("synthetic_a"));
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a"};
    grid.snr_db = {10.0, 20.0, 30.0};
    grid.repetitions = 11;

    Executor_config config;
    config.threads = 8;
    config.collect_results = false;
    std::vector<std::size_t> order;
    config.on_result = [&order](const Task_result& result) {
        order.push_back(result.task.index);
    };
    const std::vector<Task_result> results =
        run_sweep(expand(grid, registry), registry, config);
    EXPECT_TRUE(results.empty()); // collection off

    ASSERT_EQ(order.size(), 66u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(StreamingEmission, StreamedDocumentMatchesBatchBytes)
{
    Scenario_registry registry;
    registry.add(synthetic("synthetic_a"));
    registry.add(synthetic("synthetic_b"));
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a", "synthetic_b"};
    grid.snr_db = {10.0, 25.0};
    grid.repetitions = 5;
    const std::vector<Sweep_task> tasks = expand(grid, registry);

    Executor_config batch;
    batch.threads = 4;
    batch.base_seed = 11;
    const std::vector<Task_result> results = run_sweep(tasks, registry, batch);
    std::ostringstream batch_json, batch_csv;
    const std::vector<Point_summary> points = aggregate(results);
    write_json(batch_json, results, points);
    write_tasks_csv(batch_csv, results);

    // The streaming path: no result vector, rows emitted through the
    // stream writers as the ordered drain delivers them, aggregation
    // interleaved exactly as bench/anc_sweep --stream does it.
    std::ostringstream stream_json, stream_csv;
    Json_stream_writer json_writer{stream_json};
    Tasks_csv_stream_writer csv_writer{stream_csv};
    Aggregator aggregator;
    Executor_config stream = batch;
    stream.collect_results = false;
    stream.on_result = [&](const Task_result& result) {
        aggregator.add(result);
        json_writer.add(result);
        csv_writer.add(result);
    };
    run_sweep(tasks, registry, stream);
    json_writer.finish(aggregator.take());

    EXPECT_EQ(stream_json.str(), batch_json.str());
    EXPECT_EQ(stream_csv.str(), batch_csv.str());
}

TEST(Cancellation, DrainsGracefullyAndTalliesSkipped)
{
    Scenario_registry registry;
    registry.add(synthetic("synthetic_a"));
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a"};
    grid.repetitions = 10; // x2 schemes = 20 tasks

    std::atomic<bool> cancel{false};
    std::size_t completed = 0;
    Executor_config config;
    config.threads = 1; // deterministic cut point
    config.isolate_faults = true;
    config.cancel = &cancel;
    config.on_complete = [&](const Task_result&) {
        if (++completed == 5)
            cancel.store(true);
    };
    Run_tally tally;
    const std::vector<Task_result> results =
        run_sweep(expand(grid, registry), registry, config, &tally);

    EXPECT_TRUE(tally.cancelled);
    EXPECT_EQ(tally.ok, 5u);
    EXPECT_EQ(tally.skipped, 15u);
    ASSERT_EQ(results.size(), 20u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(results[i].status, Task_status::ok);
    for (std::size_t i = 5; i < 20; ++i) {
        EXPECT_EQ(results[i].status, Task_status::skipped);
        // A slot never run still names its task and seed.
        EXPECT_EQ(results[i].task.index, i);
        EXPECT_EQ(results[i].task.scenario, "synthetic_a");
        EXPECT_EQ(results[i].seed,
                  derive_task_seed(config.base_seed, results[i].task.seed_index));
    }
    // A cancelled run aggregates exactly its completed prefix.
    const std::vector<Point_summary> points = aggregate(results);
    std::size_t runs = 0;
    for (const Point_summary& point : points)
        runs += point.runs;
    EXPECT_EQ(runs, 5u);
}

TEST(Sharding, ThreeShardsReassembleToSingleRunBytes)
{
    Scenario_registry registry;
    registry.add(synthetic("synthetic_a"));
    registry.add(synthetic("synthetic_b"));
    Sweep_grid grid;
    grid.scenarios = {"synthetic_a", "synthetic_b"};
    grid.snr_db = {10.0, 20.0};
    grid.repetitions = 4;
    const std::vector<Sweep_task> tasks = expand(grid, registry);
    ASSERT_EQ(tasks.size(), 32u); // 2 scenarios x 2 schemes x 2 SNRs x 4 reps

    Executor_config reference_config;
    reference_config.threads = 1;
    reference_config.base_seed = 123;
    const std::vector<Task_result> reference =
        run_sweep(tasks, registry, reference_config);
    const std::string reference_json = test::sweep_json(reference, aggregate(reference));

    for (const std::size_t threads : {1u, 8u}) {
        // Run each shard independently, then reassemble by feeding every
        // shard row back through the executor as preloaded results —
        // the merge path of bench/anc_sweep --merge.
        std::map<std::size_t, Task_result> merged;
        for (std::size_t shard = 1; shard <= 3; ++shard) {
            const std::vector<Sweep_task> subset = shard_tasks(tasks, shard, 3);
            Executor_config config;
            config.threads = threads;
            config.base_seed = 123;
            std::vector<Task_result> results = run_sweep(subset, registry, config);
            for (Task_result& result : results)
                merged.emplace(result.task.index, std::move(result));
        }
        ASSERT_EQ(merged.size(), tasks.size());

        Executor_config replay;
        replay.threads = threads;
        replay.base_seed = 123;
        replay.preloaded = &merged;
        Run_tally tally;
        const std::vector<Task_result> reassembled =
            run_sweep(tasks, registry, replay, &tally);
        EXPECT_EQ(tally.resumed, tasks.size());
        EXPECT_EQ(test::sweep_json(reassembled, aggregate(reassembled)), reference_json)
            << "shard/merge diverged at " << threads << " threads";
    }
}

TEST(Sharding, PartitionIsDisjointAndComplete)
{
    std::vector<Sweep_task> tasks(17);
    for (std::size_t i = 0; i < tasks.size(); ++i)
        tasks[i].index = i;

    std::set<std::size_t> seen;
    for (std::size_t shard = 1; shard <= 4; ++shard)
        for (const Sweep_task& task : shard_tasks(tasks, shard, 4))
            EXPECT_TRUE(seen.insert(task.index).second)
                << "index " << task.index << " in two shards";
    EXPECT_EQ(seen.size(), tasks.size());

    EXPECT_THROW(shard_tasks(tasks, 0, 4), std::invalid_argument);
    EXPECT_THROW(shard_tasks(tasks, 5, 4), std::invalid_argument);
}

} // namespace
} // namespace anc::engine
