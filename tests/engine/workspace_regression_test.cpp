// Regression lock for the Workspace rework: recycling scratch buffers
// across tasks (and any amount of pre-existing "dirt" in those buffers)
// must not change a single byte of an engine sweep's emitted JSON.
//
// This is the structural guarantee behind the perf PR that introduced
// dsp::Workspace: leases hand out cleared buffers, every kernel fully
// overwrites what it reads, and the executor's per-thread binding is
// invisible in the results.

#include <gtest/gtest.h>

#include <string>

#include "dsp/workspace.h"
#include "engine/emit.h"
#include "engine/engine.h"

namespace anc::engine {
namespace {

Sweep_grid small_alice_bob_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"};
    grid.snr_db = {20.0, 25.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 3;
    return grid;
}

std::string run_to_json(const Sweep_grid& grid, std::size_t threads)
{
    Executor_config config;
    config.threads = threads;
    config.base_seed = 4242;
    const std::vector<Task_result> results =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;
    return to_json(results, aggregate(results));
}

TEST(WorkspaceRegression, WarmWorkspaceProducesIdenticalJson)
{
    // First run: every worker workspace starts cold.
    const std::string cold = run_to_json(small_alice_bob_grid(), 1);

    // Second run on an explicitly bound, deliberately dirtied workspace:
    // stale buffer contents from previous leases must never leak into
    // results.
    dsp::Workspace dirty;
    {
        auto signal = dirty.signal();
        signal->assign(5000, dsp::Sample{123.0, -456.0});
        auto bits = dirty.bits();
        bits->assign(4096, 1);
        auto reals = dirty.reals();
        reals->assign(4096, 3.14);
    }
    const dsp::Workspace::Bind bind{dirty};
    const std::string warm = run_to_json(small_alice_bob_grid(), 1);
    EXPECT_EQ(cold, warm);

    // Third run reusing the same (now thoroughly warm) workspace.
    const std::string warmer = run_to_json(small_alice_bob_grid(), 1);
    EXPECT_EQ(cold, warmer);
}

TEST(WorkspaceRegression, MultiThreadWorkersMatchWarmSingleThread)
{
    const std::string serial = run_to_json(small_alice_bob_grid(), 1);
    const std::string parallel = run_to_json(small_alice_bob_grid(), 4);
    EXPECT_EQ(serial, parallel);
}

TEST(WorkspaceRegression, ScratchBuffersRecycleAcrossRuns)
{
    // A warm workspace must serve whole scenario runs without creating
    // new scratch buffers — the zero-allocation steady state the
    // executor's per-worker workspaces rely on.  (The executor's own
    // workspaces are worker-lifetime locals, so observe the invariant by
    // binding our own and driving the scenario directly.)
    dsp::Workspace workspace;
    const dsp::Workspace::Bind bind{workspace};

    const Scenario& alice_bob = Scenario_registry::builtin().at("alice_bob");
    Scenario_config config;
    config.scheme = "anc";
    config.payload_bits = 512;
    config.exchanges = 2;
    config.snr_db = 25.0;

    // Warm up across the same seeds the steady state will see (distinct
    // seeds can reach different peak lease depths).
    alice_bob.run(config, 11);
    alice_bob.run(config, 12);
    alice_bob.run(config, 13);
    const std::size_t warm_buffers = workspace.buffers_created();
    EXPECT_GT(warm_buffers, 0u);
    alice_bob.run(config, 11);
    alice_bob.run(config, 12);
    alice_bob.run(config, 13);
    EXPECT_EQ(workspace.buffers_created(), warm_buffers)
        << "steady-state runs must not create new scratch buffers";
    EXPECT_GT(workspace.leases_served(), warm_buffers);
}

} // namespace
} // namespace anc::engine
