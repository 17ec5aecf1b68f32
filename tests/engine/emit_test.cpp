#include "engine/emit.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "engine/engine.h"
#include "util/rng.h"

namespace anc::engine {
namespace {

Sweep_outcome small_outcome()
{
    Scenario_registry registry;
    registry.add(Scenario{
        "toy", {"anc", "traditional"},
        [](const Scenario_config& config, std::uint64_t seed) {
            Pcg32 rng{seed};
            Scenario_result result;
            result.metrics.packets_attempted = config.exchanges;
            result.metrics.packets_delivered = config.exchanges;
            result.metrics.payload_bits_delivered =
                config.exchanges * config.payload_bits;
            result.metrics.airtime_symbols = 1000.0 + rng.next_double();
            result.metrics.packet_ber.add(0.01);
            result.series["ber_at_alice"].add(0.02);
            result.scalars["overhear_failures"] = 1.0;
            return result;
        }});
    Sweep_grid grid;
    grid.scenarios = {"toy"};
    grid.repetitions = 3;
    Executor_config config;
    config.threads = 1;
    config.base_seed = 11;
    return run_grid(grid, registry, config);
}

std::size_t count_lines(const std::string& text)
{
    std::size_t lines = 0;
    for (const char c : text)
        lines += (c == '\n');
    return lines;
}

TEST(Emit, TasksCsvHasHeaderAndOneRowPerTask)
{
    const Sweep_outcome outcome = small_outcome();
    std::ostringstream out;
    write_tasks_csv(out, outcome.tasks);
    const std::string csv = out.str();
    // One schema comment line, one header, one row per task.
    EXPECT_EQ(count_lines(csv), 2u + outcome.tasks.size());
    EXPECT_EQ(csv.rfind(std::string{"#schema="} + sweep_schema + "\n", 0), 0u);
    EXPECT_NE(csv.find("index,scenario,scheme,math_profile,"), std::string::npos);
    EXPECT_NE(csv.find("toy,anc,exact"), std::string::npos);
    EXPECT_NE(csv.find("toy,traditional,exact"), std::string::npos);
}

TEST(Emit, SummaryCsvHasOneRowPerPoint)
{
    const Sweep_outcome outcome = small_outcome();
    std::ostringstream out;
    write_summary_csv(out, outcome.points);
    const std::string csv = out.str();
    EXPECT_EQ(count_lines(csv), 2u + outcome.points.size());
    EXPECT_EQ(csv.rfind(std::string{"#schema="} + sweep_schema + "\n", 0), 0u);
}

TEST(Emit, JsonIsBalancedAndCarriesSchema)
{
    const Sweep_outcome outcome = small_outcome();
    const std::string json = to_json(outcome.tasks, outcome.points);

    EXPECT_EQ(json.rfind(std::string{"{\"schema\":\""} + sweep_schema + "\"", 0), 0u);
    EXPECT_NE(json.find("\"math_profile\":\"exact\""), std::string::npos);
    long depth = 0;
    for (const char c : json) {
        depth += (c == '{') - (c == '}');
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_NE(json.find("\"tasks\":["), std::string::npos);
    EXPECT_NE(json.find("\"points\":["), std::string::npos);
    EXPECT_NE(json.find("\"ber_at_alice\""), std::string::npos);
    EXPECT_NE(json.find("\"overhear_failures\":3"), std::string::npos); // summed
}

TEST(Emit, JsonIsByteStableAcrossIdenticalSweeps)
{
    const Sweep_outcome a = small_outcome();
    const Sweep_outcome b = small_outcome();
    EXPECT_EQ(to_json(a.tasks, a.points), to_json(b.tasks, b.points));
}

TEST(Emit, SummaryTablePrintsEveryPoint)
{
    const Sweep_outcome outcome = small_outcome();
    // Smoke: must not crash on a tmpfile stream and must write something.
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    print_summary_table(out, outcome.points);
    EXPECT_GT(std::ftell(out), 0);
    std::fclose(out);
}

TEST(Emit, PairedGainMatchesRunRatios)
{
    const Sweep_outcome outcome = small_outcome();
    const Point_key anc_key = key_of(outcome.tasks[0].task);
    Point_key traditional_key = anc_key;
    traditional_key.scheme = "traditional";

    const Cdf gains = paired_gain(outcome.tasks, anc_key, traditional_key);
    ASSERT_EQ(gains.count(), 3u);
    // toy delivers everything in both schemes, and scheme-collapsed
    // seeding gives both the same jitter draw, so every gain is 1.
    EXPECT_NEAR(gains.mean(), 1.0, 1e-12);
}

TEST(Emit, PairedGainBaselinePolicy)
{
    Sweep_outcome outcome = small_outcome();
    const Point_key anc_key = key_of(outcome.tasks[0].task);
    Point_key traditional_key = anc_key;
    traditional_key.scheme = "traditional";

    // Fail one traditional repetition: zero delivered -> zero throughput.
    for (Task_result& task : outcome.tasks) {
        if (task.task.config.scheme == "traditional" && task.task.repetition == 1)
            task.result.metrics.payload_bits_delivered = 0;
    }

    EXPECT_THROW(paired_gain(outcome.tasks, anc_key, traditional_key),
                 std::domain_error);
    const Cdf gains = paired_gain(outcome.tasks, anc_key, traditional_key,
                                  Baseline_policy::skip_failed);
    EXPECT_EQ(gains.count(), 2u); // the failed repetition is dropped
}

} // namespace
} // namespace anc::engine
