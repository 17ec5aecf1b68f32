// Telemetry regression locks (OBSERVABILITY.md):
//
//   1. *Neutrality* — enabling collection must not change a byte of the
//      sweep's emitted JSON/CSV artifacts, at any thread count, under
//      every math profile.
//   2. *Deterministic merge* — the merged counter totals are invariant
//      in the worker-thread count (per-task snapshots merged in task
//      order), and equal the sum of the per-task snapshots.
//   3. *Exact tallies* — a scripted alice_bob run with a known number
//      of clean frames produces exactly the detector / pilot / CRC
//      counts that frame count implies, and a scripted FEC decode
//      produces exactly the codeword / correction counts it implies.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/workspace.h"
#include "engine/engine.h"
#include "fec/codec.h"
#include "util/bits.h"
#include "util/obs.h"
#include "util/rng.h"

namespace anc::engine {
namespace {

Sweep_grid all_profiles_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"};
    grid.snr_db = {20.0, 25.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 2;
    grid.math_profiles = {dsp::Math_profile::exact, dsp::Math_profile::fast};
    return grid;
}

/// Every emitted artifact of one sweep, concatenated: the full JSON
/// document plus both CSVs — the byte surface telemetry must not touch.
std::string run_to_artifacts(const Sweep_grid& grid, std::size_t threads,
                             obs::Sweep_telemetry* telemetry)
{
    Executor_config config;
    config.threads = threads;
    config.base_seed = 4242;
    config.telemetry = telemetry;
    const std::vector<Task_result> results =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;
    const std::vector<Point_summary> points = aggregate(results);
    std::ostringstream out;
    write_json(out, results, points);
    write_summary_csv(out, points);
    write_tasks_csv(out, results);
    return out.str();
}

TEST(TelemetryNeutrality, ArtifactsAreByteIdenticalWithCollectionOn)
{
    const Sweep_grid grid = all_profiles_grid();
    const std::string off_serial = run_to_artifacts(grid, 1, nullptr);

    obs::Sweep_telemetry telemetry;
    EXPECT_EQ(off_serial, run_to_artifacts(grid, 1, &telemetry))
        << "telemetry changed emitted bytes (1 thread)";
    EXPECT_GT(telemetry.counters[obs::Counter::packet_detect_triggers], 0u)
        << "collection was supposed to be on";

    obs::Sweep_telemetry telemetry8;
    EXPECT_EQ(off_serial, run_to_artifacts(grid, 8, &telemetry8))
        << "telemetry changed emitted bytes (8 threads)";
    EXPECT_EQ(off_serial, run_to_artifacts(grid, 8, nullptr))
        << "thread count alone changed emitted bytes";
}

TEST(TelemetryMerge, CounterTotalsAreThreadCountInvariant)
{
    const Sweep_grid grid = all_profiles_grid();

    obs::Sweep_telemetry serial;
    const std::string serial_bytes = run_to_artifacts(grid, 1, &serial);
    obs::Sweep_telemetry parallel;
    const std::string parallel_bytes = run_to_artifacts(grid, 8, &parallel);

    EXPECT_EQ(serial_bytes, parallel_bytes);
    EXPECT_EQ(serial.counters, parallel.counters)
        << "merged counters must not depend on the worker count";
    // Stage *call* counts are deterministic too (only the ns fields are
    // wall-clock observations).
    EXPECT_EQ(serial.stages.calls, parallel.stages.calls);

    EXPECT_EQ(serial.threads, 1u);
    EXPECT_EQ(parallel.threads, 8u);
    EXPECT_EQ(serial.tasks, parallel.tasks);
    EXPECT_EQ(serial.latency.total(), serial.tasks);
    EXPECT_EQ(parallel.latency.total(), parallel.tasks);
    EXPECT_EQ(serial.workers.size(), 1u);
    EXPECT_EQ(parallel.workers.size(), 8u);
    std::uint64_t worker_tasks = 0;
    for (const obs::Worker_stats& worker : parallel.workers)
        worker_tasks += worker.tasks;
    EXPECT_EQ(worker_tasks, parallel.tasks);
}

TEST(TelemetryMerge, SweepTotalsEqualSumOfPerTaskSnapshots)
{
    const Sweep_grid grid = all_profiles_grid();
    Executor_config config;
    config.threads = 4;
    config.base_seed = 4242;
    obs::Sweep_telemetry telemetry;
    config.telemetry = &telemetry;
    const std::vector<Task_result> results =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;

    obs::Counters summed;
    for (const Task_result& result : results)
        summed.merge(result.result.telemetry.counters);
    EXPECT_EQ(summed, telemetry.counters);
    EXPECT_EQ(telemetry.tasks, results.size());
    for (const Task_result& result : results) {
        EXPECT_LT(result.result.telemetry.worker, 4u);
        EXPECT_GT(result.result.telemetry.wall_ns, 0u);
    }
}

TEST(TelemetryTallies, CleanTraditionalRunCountsEveryFrameExactly)
{
    // 2 exchanges x 2 directions x 2 hops = 8 clean transmissions; at
    // 25 dB every hop succeeds, so each of the 8 receive() calls is:
    // one detector trigger, one (negative) interference analysis, one
    // pilot search that hits, one CRC that passes, one clean outcome.
    dsp::Workspace workspace;
    const dsp::Workspace::Bind workspace_bind{workspace};
    obs::Recorder recorder;
    const obs::Recorder::Bind bind{recorder};
    recorder.begin_task();

    const Scenario& alice_bob = Scenario_registry::builtin().at("alice_bob");
    Scenario_config config;
    config.scheme = "traditional";
    config.payload_bits = 512;
    config.exchanges = 2;
    config.snr_db = 25.0;
    const Scenario_result result = alice_bob.run(config, 4242);
    ASSERT_EQ(result.metrics.packets_delivered, 4u) << "a hop failed at 25 dB";

    const obs::Counters& counters = recorder.task().counters;
    EXPECT_EQ(counters[obs::Counter::packet_detect_triggers], 8u);
    EXPECT_EQ(counters[obs::Counter::packet_detect_rejections], 0u);
    EXPECT_EQ(counters[obs::Counter::interference_analyses], 8u);
    EXPECT_EQ(counters[obs::Counter::interference_detected], 0u);
    EXPECT_EQ(counters[obs::Counter::pilot_searches], 8u);
    EXPECT_EQ(counters[obs::Counter::pilot_hits], 8u);
    EXPECT_EQ(counters[obs::Counter::pilot_misses], 0u);
    EXPECT_EQ(counters[obs::Counter::pilot_hit_error_sum], 0u);
    EXPECT_EQ(counters[obs::Counter::crc_pass], 8u);
    EXPECT_EQ(counters[obs::Counter::crc_fail], 0u);
    EXPECT_EQ(counters[obs::Counter::rx_clean], 8u);
    EXPECT_EQ(counters[obs::Counter::rx_no_packet], 0u);
    EXPECT_EQ(counters[obs::Counter::rx_failed], 0u);
    EXPECT_EQ(counters[obs::Counter::rx_decoded_interference], 0u);
    // No collisions: the interference decoder and AGC never ran.
    EXPECT_EQ(counters[obs::Counter::decode_calls], 0u);
    EXPECT_EQ(counters[obs::Counter::agc_lookups], 0u);
    EXPECT_EQ(counters[obs::Counter::fec_codewords], 0u);

    // Stage call counts follow the same arithmetic: one detector pass,
    // one channel mix, and one demodulation per hop.
    const auto calls = [&](obs::Stage stage) {
        return recorder.task().stages.calls[static_cast<std::size_t>(stage)];
    };
    EXPECT_EQ(calls(obs::Stage::packet_detect), 8u);
    EXPECT_EQ(calls(obs::Stage::channel), 8u);
    EXPECT_EQ(calls(obs::Stage::demodulate), 8u);
    EXPECT_EQ(calls(obs::Stage::pilot_search), 8u);
    EXPECT_EQ(calls(obs::Stage::modulate), 8u);
    EXPECT_EQ(calls(obs::Stage::interference_decode), 0u);
}

TEST(TelemetryTallies, FecDecodeCountsCodewordsAndCorrections)
{
    const fec::Fec_codec codec{8};
    Pcg32 rng{99, 1};
    const Bits data = random_bits(512, rng);
    Bits coded = codec.encode(data);
    ASSERT_EQ(coded.size() % 7, 0u);

    obs::Recorder recorder;
    const obs::Recorder::Bind bind{recorder};

    recorder.begin_task();
    EXPECT_EQ(codec.decode(coded, data.size()), data);
    EXPECT_EQ(recorder.task().counters[obs::Counter::fec_codewords], coded.size() / 7);
    EXPECT_EQ(recorder.task().counters[obs::Counter::fec_corrected_bits], 0u);

    // One flipped bit: same codeword count, exactly one correction, and
    // the decode still recovers the data.
    coded[3] ^= 1;
    recorder.begin_task();
    EXPECT_EQ(codec.decode(coded, data.size()), data);
    EXPECT_EQ(recorder.task().counters[obs::Counter::fec_codewords], coded.size() / 7);
    EXPECT_EQ(recorder.task().counters[obs::Counter::fec_corrected_bits], 1u);
}

TEST(TelemetryManifest, MetricsJsonIsPopulated)
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"};
    grid.snr_db = {25.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 2;

    Executor_config config;
    config.threads = 2;
    config.base_seed = 7;
    obs::Sweep_telemetry telemetry;
    config.telemetry = &telemetry;
    const std::vector<Task_result> results =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;

    const std::string json =
        metrics_to_json({.driver = "test", .base_seed = config.base_seed}, grid,
                        telemetry, results);
    EXPECT_NE(json.find("\"schema\":\"anc.metrics.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"driver\":\"test\""), std::string::npos);
    EXPECT_NE(json.find("\"base_seed\":\"7\""), std::string::npos);
    EXPECT_NE(json.find("\"stages\":"), std::string::npos);
    EXPECT_NE(json.find("\"counters\":"), std::string::npos);
    EXPECT_NE(json.find("\"latency_histogram\":"), std::string::npos);
    EXPECT_NE(json.find("\"workers\":"), std::string::npos);
    // Every counter name appears as a key, populated from a real run.
    for (std::size_t i = 0; i < obs::counter_count; ++i) {
        const std::string key =
            std::string{"\""} + obs::to_string(static_cast<obs::Counter>(i)) + "\":";
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_GT(telemetry.counters[obs::Counter::rx_clean]
                  + telemetry.counters[obs::Counter::rx_decoded_interference],
              0u);
}

} // namespace
} // namespace anc::engine
