#include "engine/scenario.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/alice_bob.h"

namespace anc::engine {
namespace {

Scenario dummy(const std::string& name)
{
    return {name, {"anc"}, [](const Scenario_config&, std::uint64_t) { return Scenario_result{}; }};
}

TEST(ScenarioRegistry, BuiltinCarriesTheTopologiesAndFadingVariants)
{
    const Scenario_registry& registry = Scenario_registry::builtin();
    EXPECT_EQ(registry.size(), 5u);
    ASSERT_NE(registry.find("alice_bob"), nullptr);
    ASSERT_NE(registry.find("x_topology"), nullptr);
    ASSERT_NE(registry.find("chain"), nullptr);
    ASSERT_NE(registry.find("alice_bob_fading"), nullptr);
    ASSERT_NE(registry.find("x_topology_fading"), nullptr);

    const std::vector<std::string> full{"traditional", "cope", "anc"};
    EXPECT_EQ(registry.at("alice_bob").schemes(), full);
    EXPECT_EQ(registry.at("x_topology").schemes(), full);
    EXPECT_EQ(registry.at("alice_bob_fading").schemes(), full);
    EXPECT_EQ(registry.at("x_topology_fading").schemes(), full);
    const std::vector<std::string> unidirectional{"traditional", "anc"};
    EXPECT_EQ(registry.at("chain").schemes(), unidirectional);
}

TEST(ScenarioRegistry, DuplicateNameThrows)
{
    Scenario_registry registry;
    registry.add(dummy("one"));
    EXPECT_THROW(registry.add(dummy("one")), std::invalid_argument);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(ScenarioRegistry, NullAndSchemelessScenariosThrow)
{
    EXPECT_THROW((Scenario{"null", {"anc"}, nullptr}), std::invalid_argument);
    EXPECT_THROW((Scenario{"empty",
                           {},
                           [](const Scenario_config&, std::uint64_t) {
                               return Scenario_result{};
                           }}),
                 std::invalid_argument);
}

TEST(ScenarioRegistry, LookupOfUnknownName)
{
    const Scenario_registry& registry = Scenario_registry::builtin();
    EXPECT_EQ(registry.find("nonexistent"), nullptr);
    EXPECT_THROW(registry.at("nonexistent"), std::out_of_range);
}

TEST(ScenarioRegistry, NamesKeepRegistrationOrder)
{
    Scenario_registry registry;
    registry.add(dummy("zeta"));
    registry.add(dummy("alpha"));
    const std::vector<std::string> expected{"zeta", "alpha"};
    EXPECT_EQ(registry.names(), expected);
}

TEST(ScenarioRegistry, RunRejectsUnsupportedScheme)
{
    const Scenario& chain = Scenario_registry::builtin().at("chain");
    EXPECT_FALSE(chain.supports_scheme("cope"));
    Scenario_config config;
    config.scheme = "cope";
    EXPECT_THROW(chain.run(config, 1), std::invalid_argument);
}

TEST(ScenarioRegistry, AliceBobScenarioMatchesDirectRunner)
{
    // The adapter must be a faithful pass-through of the sim runner.
    Scenario_config config;
    config.scheme = "anc";
    config.payload_bits = 1024;
    config.exchanges = 4;
    config.snr_db = 25.0;
    const Scenario_result via_engine =
        Scenario_registry::builtin().at("alice_bob").run(config, 77);

    sim::Alice_bob_config direct;
    direct.payload_bits = 1024;
    direct.exchanges = 4;
    direct.snr_db = 25.0;
    direct.seed = 77;
    const sim::Alice_bob_result expected = sim::run_alice_bob_anc(direct);

    EXPECT_EQ(via_engine.metrics.packets_delivered, expected.metrics.packets_delivered);
    EXPECT_DOUBLE_EQ(via_engine.metrics.airtime_symbols,
                     expected.metrics.airtime_symbols);
    EXPECT_DOUBLE_EQ(via_engine.metrics.mean_ber(), expected.metrics.mean_ber());
    ASSERT_EQ(via_engine.series.count("ber_at_alice"), 1u);
    EXPECT_EQ(via_engine.series.at("ber_at_alice").count(), expected.ber_at_alice.count());
}

} // namespace
} // namespace anc::engine
