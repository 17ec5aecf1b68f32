#include "engine/sweep.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace anc::engine {
namespace {

TEST(SweepGrid, CartesianExpansionCount)
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"}; // 3 schemes
    grid.snr_db = {20.0, 25.0};
    grid.bob_amplitudes = {0.5, 1.0};
    grid.payload_bits = {512, 1024};
    grid.exchanges = {2};
    grid.repetitions = 5;
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    EXPECT_EQ(tasks.size(), 3u * 2u * 2u * 2u * 5u);
}

TEST(SweepGrid, IndicesAreStablePositions)
{
    Sweep_grid grid;
    grid.scenarios = {"chain"};
    grid.snr_db = {20.0, 25.0};
    grid.repetitions = 3;
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_EQ(tasks.size(), 2u * 2u * 3u);
    for (std::size_t i = 0; i < tasks.size(); ++i)
        EXPECT_EQ(tasks[i].index, i);
}

TEST(SweepGrid, AxisOrderIsScenarioSchemeThenOperatingPoint)
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob", "chain"};
    grid.schemes = {"anc"};
    grid.snr_db = {20.0, 25.0};
    grid.repetitions = 2;
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_EQ(tasks.size(), 8u);
    EXPECT_EQ(tasks[0].scenario, "alice_bob");
    EXPECT_DOUBLE_EQ(tasks[0].config.snr_db, 20.0);
    EXPECT_EQ(tasks[0].repetition, 0u);
    EXPECT_EQ(tasks[1].repetition, 1u);
    EXPECT_DOUBLE_EQ(tasks[2].config.snr_db, 25.0);
    EXPECT_EQ(tasks[4].scenario, "chain");
}

TEST(SweepGrid, SeedIndexCollapsesTheSchemeAxis)
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob", "chain"};
    grid.snr_db = {20.0, 25.0};
    grid.repetitions = 2;
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_EQ(tasks.size(), (3u + 2u) * 2u * 2u);

    // Tasks that differ only in scheme share a seed_index...
    for (const Sweep_task& a : tasks) {
        for (const Sweep_task& b : tasks) {
            const bool same_point_and_rep =
                a.scenario == b.scenario && a.config.snr_db == b.config.snr_db
                && a.repetition == b.repetition;
            if (same_point_and_rep) {
                EXPECT_EQ(a.seed_index, b.seed_index);
            }
        }
    }
    // ...and distinct (scenario, operating point, repetition) never do.
    std::set<std::size_t> distinct;
    for (const Sweep_task& task : tasks) {
        if (task.config.scheme == "anc")
            distinct.insert(task.seed_index);
    }
    EXPECT_EQ(distinct.size(), 2u * 2u * 2u); // 2 scenarios x 2 SNRs x 2 reps
}

TEST(SweepGrid, EmptySchemesMeansEveryDeclaredScheme)
{
    Sweep_grid grid;
    grid.scenarios = {"chain"};
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_EQ(tasks[0].config.scheme, "traditional");
    EXPECT_EQ(tasks[1].config.scheme, "anc");
}

TEST(SweepGrid, SchemesIntersectWithScenarioSupport)
{
    // COPE exists for alice_bob but not for the unidirectional chain;
    // the grid silently contributes no chain/cope tasks.
    Sweep_grid grid;
    grid.scenarios = {"alice_bob", "chain"};
    grid.schemes = {"cope", "anc"};
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_EQ(tasks.size(), 3u);
    EXPECT_EQ(tasks[0].scenario, "alice_bob");
    EXPECT_EQ(tasks[0].config.scheme, "cope");
    EXPECT_EQ(tasks[1].config.scheme, "anc");
    EXPECT_EQ(tasks[2].scenario, "chain");
    EXPECT_EQ(tasks[2].config.scheme, "anc");
}

TEST(SweepGrid, UnknownScenarioThrows)
{
    Sweep_grid grid;
    grid.scenarios = {"no_such_topology"};
    EXPECT_THROW(expand(grid, Scenario_registry::builtin()), std::out_of_range);
}

TEST(SweepGrid, SchemeSupportedNowhereThrows)
{
    Sweep_grid grid;
    grid.scenarios = {"chain"};
    grid.schemes = {"cope"};
    EXPECT_THROW(expand(grid, Scenario_registry::builtin()), std::invalid_argument);
}

TEST(SweepGrid, EmptyAxesThrow)
{
    Sweep_grid grid;
    // no scenarios
    EXPECT_THROW(expand(grid, Scenario_registry::builtin()), std::invalid_argument);

    grid.scenarios = {"chain"};
    grid.snr_db.clear();
    EXPECT_THROW(expand(grid, Scenario_registry::builtin()), std::invalid_argument);

    grid.snr_db = {25.0};
    grid.repetitions = 0;
    EXPECT_THROW(expand(grid, Scenario_registry::builtin()), std::invalid_argument);
}

TEST(SweepGrid, RepeatedAxisValueThrowsNamingTheAxis)
{
    // A repeated value would expand into duplicate tasks sharing one
    // channel realization, aggregated as if they were independent runs.
    const auto error_for = [](const Sweep_grid& grid) -> std::string {
        try {
            expand(grid, Scenario_registry::builtin());
        } catch (const std::invalid_argument& error) {
            return error.what();
        }
        return "no error";
    };
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"};
    EXPECT_NO_THROW(expand(grid, Scenario_registry::builtin()));

    Sweep_grid profiles = grid;
    profiles.math_profiles = {dsp::Math_profile::exact, dsp::Math_profile::exact};
    EXPECT_NE(error_for(profiles).find("'math_profiles'"), std::string::npos);

    Sweep_grid snrs = grid;
    snrs.snr_db = {20.0, 22.0, 20.0};
    EXPECT_NE(error_for(snrs).find("'snr_db'"), std::string::npos);

    Sweep_grid scenarios = grid;
    scenarios.scenarios = {"alice_bob", "chain", "alice_bob"};
    EXPECT_NE(error_for(scenarios).find("'scenarios'"), std::string::npos);

    Sweep_grid schemes = grid;
    schemes.schemes = {"anc", "anc"};
    EXPECT_NE(error_for(schemes).find("'schemes'"), std::string::npos);
}

TEST(SweepGrid, DefaultGridExpandsToDefaultConfigs)
{
    // Each Sweep_grid axis defaults to the one value its Scenario_config
    // field defaults to, so a grid that names only scenarios runs every
    // scheme at the default operating point.
    Sweep_grid grid;
    grid.scenarios = Scenario_registry::builtin().names();
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_FALSE(tasks.empty());
    for (const Sweep_task& task : tasks) {
        Scenario_config expected;
        expected.scheme = task.config.scheme;
        EXPECT_TRUE(task.config == expected) << "task " << task.index;
    }
}

} // namespace
} // namespace anc::engine
