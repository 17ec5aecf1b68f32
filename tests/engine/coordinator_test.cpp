// The multi-process sweep coordinator (engine/coordinator.h), driven
// hermetically through the Worker_launcher seam: fake workers are
// /bin/sh one-liners that publish prebuilt shard journals, hang, or
// crash — so watchdog kills, reassignment, work stealing, and the
// merge-equivalence guarantee are all exercised without racing real
// sweeps.

#include "engine/coordinator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/emit.h"
#include "engine/engine.h"
#include "engine/journal.h"
#include "util/rng.h"

namespace anc::engine {
namespace {

/// Seed-dependent samples on every CDF (as in journal_test), so any
/// merge path that loses order or precision breaks byte-identity.
Scenario_registry noisy_registry()
{
    Scenario_registry registry;
    registry.add(std::make_unique<Function_scenario>(
        "noisy", std::vector<std::string>{"anc", "traditional"},
        [](const Scenario_config& config, std::uint64_t seed) {
            Pcg32 rng{seed};
            Scenario_result result;
            result.metrics.packets_attempted = config.exchanges;
            result.metrics.packets_delivered = rng.next_in_range(
                1, static_cast<std::uint32_t>(config.exchanges));
            result.metrics.payload_bits_delivered =
                result.metrics.packets_delivered * config.payload_bits;
            result.metrics.airtime_symbols = 1.0 + rng.next_double() * 1e-13;
            for (std::size_t i = 0; i < 3; ++i)
                result.metrics.packet_ber.add(rng.next_double() * 0.05);
            result.series["phase err"].add(rng.next_double());
            result.scalars["iters"] = rng.next_double() * 1e9;
            return result;
        }));
    return registry;
}

Sweep_grid small_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"noisy"};
    grid.snr_db = {10.0, 20.0};
    grid.repetitions = 3;
    return grid;
}

/// A scratch directory for one test's shard journals and scripts.
struct Temp_dir {
    explicit Temp_dir(const std::string& name) : path{testing::TempDir() + name}
    {
        std::remove(path.c_str());
        ::system(("rm -rf '" + path + "' && mkdir -p '" + path + "'").c_str());
    }
    ~Temp_dir() { ::system(("rm -rf '" + path + "'").c_str()); }
    std::string path;
};

/// Run shard K/S of `grid` in-process and journal it to `path` — the
/// artifact a healthy worker would have produced.
void prebuild_shard(const Sweep_grid& grid, const Scenario_registry& registry,
                    std::uint64_t seed, std::size_t k, std::size_t s,
                    const std::string& path)
{
    const std::vector<Sweep_task> all = expand(grid, registry);
    const std::vector<Sweep_task> mine = s > 1 ? shard_tasks(all, k, s) : all;
    Journal_writer writer{
        path, Journal_header{grid_fingerprint(grid), seed, all.size(), k, s},
        /*truncate=*/true};
    Executor_config config;
    config.threads = 1;
    config.base_seed = seed;
    config.isolate_faults = true;
    config.on_complete = [&writer](const Task_result& r) { writer.append(r); };
    run_sweep(mine, registry, config);
    writer.flush();
}

/// Keep the first `lines` lines of `source` in `target` (a journal cut
/// short by a crash; magic + header are the first two lines).
void truncate_lines(const std::string& source, const std::string& target,
                    std::size_t lines)
{
    std::ifstream in{source};
    std::ofstream out{target, std::ios::trunc};
    std::string line;
    for (std::size_t i = 0; i < lines && std::getline(in, line); ++i)
        out << line << "\n";
}

/// `cp` the prebuilt journal into place atomically (part-file + mv), as
/// a worker completing its whole shard in one step.
std::string publish_script(const std::string& prebuilt, const std::string& target)
{
    return "cp '" + prebuilt + "' '" + target + ".part' && mv '" + target
         + ".part' '" + target + "'";
}

/// A launcher running /bin/sh fake workers; every request is recorded.
Worker_launcher script_launcher(
    std::function<std::string(const Worker_request&)> script_for,
    std::vector<Worker_request>* log = nullptr)
{
    return [script_for = std::move(script_for), log](const Worker_request& request) {
        if (log != nullptr)
            log->push_back(request);
        return util::Subprocess::spawn({"/bin/sh", "-c", script_for(request)});
    };
}

/// The single-process reference document the coordinator must match.
std::string reference_json(const Sweep_grid& grid, const Scenario_registry& registry,
                           std::uint64_t seed)
{
    Executor_config config;
    config.threads = 1;
    config.base_seed = seed;
    config.isolate_faults = true;
    const std::vector<Task_result> results =
        run_sweep(expand(grid, registry), registry, config);
    return to_json(results, aggregate(results));
}

Coordinator_config base_config(const std::string& work_dir, std::size_t workers,
                               std::size_t shards)
{
    Coordinator_config config;
    config.workers = workers;
    config.shards = shards;
    config.work_dir = work_dir;
    config.poll_interval = std::chrono::milliseconds{5};
    config.heartbeat_timeout = std::chrono::milliseconds{30000};
    return config;
}

TEST(Coordinator, MergesShardsByteIdenticalToDirectRun)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 42;
    Temp_dir dir{"coord_happy"};

    for (std::size_t k = 1; k <= 2; ++k)
        prebuild_shard(grid, registry, seed, k, 2, dir.path + "/pre" + std::to_string(k));

    Coordinator_config config = base_config(dir.path, 2, 2);
    config.launcher = script_launcher([&](const Worker_request& r) {
        return publish_script(dir.path + "/pre" + std::to_string(r.shard_index),
                              r.journal_path);
    });
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_TRUE(outcome.completed);
    EXPECT_FALSE(outcome.cancelled);
    EXPECT_EQ(outcome.failed_shards, 0u);
    EXPECT_EQ(outcome.stats.launches, 2u);
    EXPECT_EQ(outcome.stats.reassignments, 0u);
    EXPECT_EQ(outcome.stats.steals, 0u);
    EXPECT_EQ(outcome.tally.ok, outcome.results.size());

    // The merge-equivalence guarantee: same bytes as one direct run.
    EXPECT_EQ(to_json(outcome.results, aggregate(outcome.results)),
              reference_json(grid, registry, seed));

    // Rows arrive in strict global index order.
    for (std::size_t i = 0; i < outcome.results.size(); ++i)
        EXPECT_EQ(outcome.results[i].task.index, i);
}

TEST(Coordinator, WatchdogKillsStalledWorkerAndReassigns)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 7;
    Temp_dir dir{"coord_stall"};

    for (std::size_t k = 1; k <= 2; ++k)
        prebuild_shard(grid, registry, seed, k, 2, dir.path + "/pre" + std::to_string(k));

    // Shard 1's first worker writes nothing and hangs; its relaunch (and
    // shard 2 throughout) publishes the journal.  The watchdog must fire
    // on the silent journal, not on wall time of healthy workers.
    std::vector<Worker_request> requests;
    Coordinator_config config = base_config(dir.path, 2, 2);
    config.heartbeat_timeout = std::chrono::milliseconds{300};
    config.launcher = script_launcher(
        [&](const Worker_request& r) -> std::string {
            if (r.shard_index == 1 && r.attempt == 1)
                return "sleep 60";
            return publish_script(dir.path + "/pre" + std::to_string(r.shard_index),
                                  r.journal_path);
        },
        &requests);
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.stats.watchdog_kills, 1u);
    EXPECT_EQ(outcome.stats.reassignments, 1u);
    EXPECT_EQ(outcome.stats.launches, 3u);
    EXPECT_EQ(to_json(outcome.results, aggregate(outcome.results)),
              reference_json(grid, registry, seed));
}

TEST(Coordinator, CrashedWorkerResumesWithoutRecomputingTasks)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 9;
    Temp_dir dir{"coord_crash"};

    prebuild_shard(grid, registry, seed, 1, 2, dir.path + "/pre1");
    prebuild_shard(grid, registry, seed, 2, 2, dir.path + "/pre2");
    // Shard 1 "crashes" after journaling its first two tasks.
    truncate_lines(dir.path + "/pre1", dir.path + "/pre1_partial", 2 + 2);

    std::vector<Worker_request> requests;
    Coordinator_config config = base_config(dir.path, 2, 2);
    config.launcher = script_launcher(
        [&](const Worker_request& r) -> std::string {
            if (r.shard_index == 1 && r.attempt == 1)
                return publish_script(dir.path + "/pre1_partial", r.journal_path)
                     + " && exit 1";
            return publish_script(dir.path + "/pre" + std::to_string(r.shard_index),
                                  r.journal_path);
        },
        &requests);
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.stats.worker_failures, 1u);
    EXPECT_EQ(outcome.stats.reassignments, 1u);

    // The relaunch must be a --resume of the SAME journal: the two tasks
    // the crashed attempt completed are never recomputed.
    bool saw_resume = false;
    for (const Worker_request& r : requests)
        if (r.shard_index == 1 && r.attempt == 2) {
            saw_resume = true;
            EXPECT_TRUE(r.resume);
            EXPECT_EQ(r.journal_path, shard_journal_path(dir.path, 1));
        }
    EXPECT_TRUE(saw_resume);
    EXPECT_EQ(to_json(outcome.results, aggregate(outcome.results)),
              reference_json(grid, registry, seed));
}

TEST(Coordinator, CrashBeforeJournalingRelaunchesFresh)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 13;
    Temp_dir dir{"coord_crash_fresh"};

    for (std::size_t k = 1; k <= 2; ++k)
        prebuild_shard(grid, registry, seed, k, 2, dir.path + "/pre" + std::to_string(k));

    // Shard 1's first worker dies before writing its journal header.
    // With no journal to resume, the relaunch must start fresh: a
    // --resume of a missing file is a usage error for anc_sweep.
    std::vector<Worker_request> requests;
    Coordinator_config config = base_config(dir.path, 2, 2);
    config.launcher = script_launcher(
        [&](const Worker_request& r) -> std::string {
            if (r.shard_index == 1 && r.attempt == 1)
                return "exit 1";
            return publish_script(dir.path + "/pre" + std::to_string(r.shard_index),
                                  r.journal_path);
        },
        &requests);
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.stats.worker_failures, 1u);
    EXPECT_EQ(outcome.stats.reassignments, 1u);
    bool saw_relaunch = false;
    for (const Worker_request& r : requests)
        if (r.shard_index == 1 && r.attempt == 2) {
            saw_relaunch = true;
            EXPECT_FALSE(r.resume);
            EXPECT_EQ(r.journal_path, shard_journal_path(dir.path, 1));
        }
    EXPECT_TRUE(saw_relaunch);
    EXPECT_EQ(to_json(outcome.results, aggregate(outcome.results)),
              reference_json(grid, registry, seed));
}

TEST(Coordinator, ShardFailsPermanentlyAfterMaxAttempts)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 3;
    Temp_dir dir{"coord_fail"};

    prebuild_shard(grid, registry, seed, 1, 2, dir.path + "/pre1");

    // Shard 2 crashes on every attempt; shard 1 is healthy.
    Coordinator_config config = base_config(dir.path, 2, 2);
    config.max_shard_attempts = 2;
    config.launcher = script_launcher([&](const Worker_request& r) -> std::string {
        if (r.shard_index == 2)
            return "exit 1";
        return publish_script(dir.path + "/pre1", r.journal_path);
    });
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_FALSE(outcome.completed);
    EXPECT_EQ(outcome.failed_shards, 1u);
    EXPECT_EQ(outcome.stats.worker_failures, 2u);
    EXPECT_GT(outcome.tally.skipped, 0u);
    // The merged stream stays a correct prefix: global index order with
    // no gaps, stalling at the first index the failed shard owns.
    for (std::size_t i = 0; i < outcome.results.size(); ++i)
        EXPECT_EQ(outcome.results[i].task.index, i);
}

TEST(Coordinator, StealsPendingShardsWhenShardsExceedWorkers)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 11;
    Temp_dir dir{"coord_steal"};

    const std::size_t shards = 4;
    for (std::size_t k = 1; k <= shards; ++k)
        prebuild_shard(grid, registry, seed, k, shards,
                       dir.path + "/pre" + std::to_string(k));

    Coordinator_config config = base_config(dir.path, 2, shards);
    config.launcher = script_launcher([&](const Worker_request& r) {
        return publish_script(dir.path + "/pre" + std::to_string(r.shard_index),
                              r.journal_path);
    });
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.stats.launches, 4u);
    EXPECT_EQ(outcome.stats.steals, 2u); // 4 shards over 2 slots
    EXPECT_EQ(outcome.stats.reassignments, 0u);
    std::size_t slot_launches = 0;
    for (const Worker_slot_stats& slot : outcome.stats.slots)
        slot_launches += slot.launches;
    EXPECT_EQ(slot_launches, 4u);
    EXPECT_EQ(to_json(outcome.results, aggregate(outcome.results)),
              reference_json(grid, registry, seed));
}

TEST(Coordinator, AdoptsCompleteJournalsWithoutLaunching)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 21;
    Temp_dir dir{"coord_restart"};

    // A previous coordinator run already finished both shards: restart
    // must adopt the journals and launch nothing.
    for (std::size_t k = 1; k <= 2; ++k)
        prebuild_shard(grid, registry, seed, k, 2, shard_journal_path(dir.path, k));

    Coordinator_config config = base_config(dir.path, 2, 2);
    config.launcher = script_launcher([](const Worker_request&) -> std::string {
        ADD_FAILURE() << "no worker should launch for complete journals";
        return "exit 1";
    });
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.stats.launches, 0u);
    EXPECT_EQ(to_json(outcome.results, aggregate(outcome.results)),
              reference_json(grid, registry, seed));
}

TEST(Coordinator, IncompatibleShardJournalIsFatal)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    Temp_dir dir{"coord_incompat"};

    // A journal for the right shard but the WRONG seed sitting in the
    // work dir: silently merging it would corrupt the run.
    prebuild_shard(grid, registry, /*seed=*/999, 1, 2, shard_journal_path(dir.path, 1));

    Coordinator_config config = base_config(dir.path, 2, 2);
    config.launcher = script_launcher([](const Worker_request&) -> std::string {
        return "sleep 60";
    });
    EXPECT_THROW(run_coordinated(grid, registry, /*base_seed=*/21, config),
                 std::runtime_error);
}

TEST(Coordinator, RejectsInvalidConfig)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();

    Coordinator_config no_launcher = base_config("/tmp", 2, 2);
    EXPECT_THROW(run_coordinated(grid, registry, 1, no_launcher),
                 std::invalid_argument);

    Coordinator_config zero_workers = base_config("/tmp", 0, 2);
    zero_workers.launcher =
        script_launcher([](const Worker_request&) { return std::string{"exit 0"}; });
    EXPECT_THROW(run_coordinated(grid, registry, 1, zero_workers),
                 std::invalid_argument);
}

TEST(Coordinator, StreamsRowsInOrderWithoutCollecting)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::uint64_t seed = 5;
    Temp_dir dir{"coord_stream"};

    for (std::size_t k = 1; k <= 2; ++k)
        prebuild_shard(grid, registry, seed, k, 2, dir.path + "/pre" + std::to_string(k));

    std::vector<std::size_t> order;
    Coordinator_config config = base_config(dir.path, 2, 2);
    config.collect_results = false;
    config.on_result = [&order](const Task_result& r) { order.push_back(r.task.index); };
    config.launcher = script_launcher([&](const Worker_request& r) {
        return publish_script(dir.path + "/pre" + std::to_string(r.shard_index),
                              r.journal_path);
    });
    const Coordinator_outcome outcome = run_coordinated(grid, registry, seed, config);

    EXPECT_TRUE(outcome.completed);
    EXPECT_TRUE(outcome.results.empty());
    ASSERT_EQ(order.size(), expand(grid, registry).size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

} // namespace
} // namespace anc::engine
