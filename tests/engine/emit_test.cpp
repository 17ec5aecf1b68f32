#include "engine/emit.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "engine/engine.h"
#include "engine/journal.h"
#include "util/rng.h"

#include "support/sweep_json.h"

namespace anc::engine {
namespace {

Scenario_registry toy_registry()
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
    return registry;
}

Sweep_outcome run_toy(const Sweep_grid& grid)
{
    Executor_config config;
    config.threads = 1;
    config.base_seed = 11;
    return run_grid(grid, toy_registry(), config);
}

Sweep_outcome small_outcome()
{
    Sweep_grid grid;
    grid.scenarios = {"toy"};
    grid.repetitions = 3;
    return run_toy(grid);
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
    const std::string json = test::sweep_json(outcome.tasks, outcome.points);

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
    EXPECT_EQ(test::sweep_json(a.tasks, a.points), test::sweep_json(b.tasks, b.points));
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

/// Every numeric axis off its default, two values on three of them and
/// both profiles.  The literals below pin the key layout of every sweep
/// document and the grid fingerprint every journal header carries.
Sweep_grid pin_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"toy"};
    grid.snr_db = {18.5, 22.25};
    grid.alice_amplitudes = {0.75};
    grid.bob_amplitudes = {0.5, 0.3};
    grid.payload_bits = {1024};
    grid.exchanges = {4, 6};
    grid.detector_thresholds_db = {12.5};
    grid.interleave_rows = {16};
    grid.coherence_blocks = {512};
    grid.mean_link_gains = {0.8};
    grid.math_profiles = {dsp::Math_profile::exact, dsp::Math_profile::fast};
    grid.repetitions = 2;
    return grid;
}

/// Line `n` (0-based) of `text`, without its newline.
std::string line_at(const std::string& text, std::size_t n)
{
    std::istringstream in{text};
    std::string line;
    for (std::size_t i = 0; i <= n; ++i)
        std::getline(in, line);
    return line;
}

TEST(Emit, PinnedGridDocumentBytes)
{
    const Sweep_grid grid = pin_grid();
    EXPECT_EQ(grid_to_json(grid),
              R"({"scenarios":["toy"],"schemes":[],"math_profiles":["exact","fast"],)"
              R"("snr_db":[18.5,22.25],"alice_amplitudes":[0.75],)"
              R"("bob_amplitudes":[0.5,0.29999999999999999],"payload_bits":[1024],)"
              R"("exchanges":[4,6],"detector_thresholds_db":[12.5],"interleave_rows":[16],)"
              R"("coherence_blocks":[512],"mean_link_gains":[0.80000000000000004],)"
              R"("repetitions":2})");
    EXPECT_EQ(grid_fingerprint(grid), 15189992177845847389u);

    const Sweep_outcome outcome = run_toy(grid);
    ASSERT_EQ(outcome.tasks.size(), 64u);

    std::ostringstream tasks_csv;
    write_tasks_csv(tasks_csv, outcome.tasks);
    EXPECT_EQ(line_at(tasks_csv.str(), 1),
              "index,scenario,scheme,math_profile,snr_db,alice_amplitude,bob_amplitude,"
              "payload_bits,exchanges,detector_threshold_db,interleave_rows,"
              "coherence_block,mean_link_gain,repetition,seed,status,packets_attempted,"
              "packets_delivered,payload_bits_delivered,airtime_symbols,delivery_rate,"
              "mean_ber,mean_overlap,raw_throughput,throughput");
    EXPECT_EQ(line_at(tasks_csv.str(), 2),
              "0,toy,anc,exact,18.5,0.75,0.5,1024,4,12.5,16,512,0.80000000000000004,0,"
              "5833679380957638813,ok,4,4,4096,1000.8601725930984,1,0.01,0,"
              "4.0924797610717167,4.0122350598742322");
    EXPECT_EQ(line_at(tasks_csv.str(), 65),
              "63,toy,traditional,fast,22.25,0.75,0.29999999999999999,1024,6,12.5,16,512,"
              "0.80000000000000004,1,4530303411839170936,ok,6,6,6144,1000.5553947631955,1,"
              "0.01,0,6.1405895487217066,6.020185832080104");

    std::ostringstream summary_csv;
    write_summary_csv(summary_csv, outcome.points);
    EXPECT_EQ(line_at(summary_csv.str(), 1),
              "scenario,scheme,math_profile,snr_db,alice_amplitude,bob_amplitude,"
              "payload_bits,exchanges,detector_threshold_db,interleave_rows,"
              "coherence_block,mean_link_gain,runs,errors,packets_attempted,"
              "packets_delivered,delivery_rate,mean_ber,mean_overlap,throughput_mean,"
              "throughput_p50,throughput_p90,throughput_min,throughput_max");
    EXPECT_EQ(line_at(summary_csv.str(), 2),
              "toy,anc,exact,18.5,0.75,0.5,1024,4,12.5,16,512,0.80000000000000004,2,0,8,8,1,"
              "0.01,0,4.0120803987342466,4.0120803987342466,4.0122041276462355,"
              "4.011925737594261,4.0122350598742322");

    const std::string json = test::sweep_json(outcome.tasks, outcome.points);
    EXPECT_EQ(json.substr(0, json.find("\"seed\"")),
              R"({"schema":"anc.sweep.v4","tasks":[{"index":0,"scenario":"toy",)"
              R"("scheme":"anc","math_profile":"exact","snr_db":18.5,"alice_amplitude":0.75,)"
              R"("bob_amplitude":0.5,"payload_bits":1024,"exchanges":4,)"
              R"("detector_threshold_db":12.5,"interleave_rows":16,"coherence_block":512,)"
              R"("mean_link_gain":0.80000000000000004,"repetition":0,)");
}

} // namespace
} // namespace anc::engine
