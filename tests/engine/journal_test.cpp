// The completed-task journal: round-trip exactness, torn/corrupt line
// recovery, and header compatibility — the crash-safety substrate of
// `anc_sweep --journal/--resume/--merge` (ENGINE.md "Fault tolerance").

#include "engine/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/emit.h"
#include "engine/engine.h"
#include "util/rng.h"

namespace anc::engine {
namespace {

/// Unsorted, seed-dependent samples on every CDF, so any serialization
/// that loses insertion order (or precision) breaks byte-identity.
Scenario_registry noisy_registry()
{
    Scenario_registry registry;
    registry.add(Scenario{
        "noisy", {"anc", "traditional"},
        [](const Scenario_config& config, std::uint64_t seed) {
            Pcg32 rng{seed};
            Scenario_result result;
            result.metrics.packets_attempted = config.exchanges;
            result.metrics.packets_delivered = rng.next_in_range(
                1, static_cast<std::uint32_t>(config.exchanges));
            result.metrics.payload_bits_delivered =
                result.metrics.packets_delivered * config.payload_bits;
            result.metrics.airtime_symbols = 1.0 + rng.next_double() * 1e-13;
            for (std::size_t i = 0; i < 5; ++i)
                result.metrics.packet_ber.add(rng.next_double() * 0.05);
            result.metrics.overlaps.add(rng.next_double() * 3.0);
            result.series["phase err"].add(rng.next_double()); // space in name
            result.series["phase err"].add(-rng.next_double());
            result.scalars["iters:odd|name"] = rng.next_double() * 1e9;
            return result;
        }});
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

/// A scratch path in the build directory, removed on destruction.
struct Temp_path {
    explicit Temp_path(const std::string& name)
        : path{testing::TempDir() + name}
    {
        std::remove(path.c_str());
    }
    ~Temp_path() { std::remove(path.c_str()); }
    std::string path;
};

/// Run `tasks` journaling every completion into `path`.
std::vector<Task_result> run_with_journal(const std::vector<Sweep_task>& tasks,
                                          const Scenario_registry& registry,
                                          const Journal_header& header,
                                          const std::string& path,
                                          std::uint64_t base_seed)
{
    Journal_writer writer{path, header, /*truncate=*/true};
    Executor_config config;
    config.threads = 2;
    config.base_seed = base_seed;
    config.isolate_faults = true;
    config.on_complete = [&writer](const Task_result& r) { writer.append(r); };
    return run_sweep(tasks, registry, config);
}

TEST(Journal, RoundTripIsByteExact)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::vector<Sweep_task> tasks = expand(grid, registry);
    const Journal_header header{grid_fingerprint(grid), 77, tasks.size(), 1, 1};

    Temp_path journal{"journal_roundtrip.anj"};
    const std::vector<Task_result> reference =
        run_with_journal(tasks, registry, header, journal.path, 77);
    const std::string reference_json = to_json(reference, aggregate(reference));

    // Reload and resume: everything preloaded, nothing executes, and the
    // emitted document must match byte for byte.
    Journal_contents contents = load_journal(journal.path);
    EXPECT_EQ(contents.dropped_lines, 0u);
    EXPECT_EQ(contents.entries.size(), tasks.size());
    EXPECT_EQ(contents.header.grid_hash, header.grid_hash);

    std::map<std::size_t, Task_result> preloaded =
        preload_from_entries(std::move(contents.entries), tasks);
    ASSERT_EQ(preloaded.size(), tasks.size());

    Executor_config config;
    config.threads = 4;
    config.base_seed = 77;
    config.preloaded = &preloaded;
    Run_tally tally;
    const std::vector<Task_result> replayed =
        run_sweep(tasks, registry, config, &tally);
    EXPECT_EQ(tally.resumed, tasks.size());
    EXPECT_EQ(to_json(replayed, aggregate(replayed)), reference_json);
}

TEST(Journal, PartialJournalResumesToIdenticalOutput)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::vector<Sweep_task> tasks = expand(grid, registry);
    const Journal_header header{grid_fingerprint(grid), 5, tasks.size(), 1, 1};

    Temp_path journal{"journal_partial.anj"};
    const std::vector<Task_result> reference =
        run_with_journal(tasks, registry, header, journal.path, 5);
    const std::string reference_json = to_json(reference, aggregate(reference));

    // Truncate to magic + header + half the entries — a crash at ~50% —
    // and add a torn final line (no newline, partial payload).
    std::ifstream in{journal.path};
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    in.close();
    const std::size_t keep = 2 + (lines.size() - 2) / 2;
    std::ofstream out{journal.path, std::ios::trunc};
    for (std::size_t i = 0; i < keep; ++i)
        out << lines[i] << "\n";
    out << lines[keep].substr(0, lines[keep].size() / 2); // torn
    out.close();

    Journal_contents contents = load_journal(journal.path);
    EXPECT_EQ(contents.dropped_lines, 1u);
    EXPECT_EQ(contents.entries.size(), keep - 2);

    std::map<std::size_t, Task_result> preloaded =
        preload_from_entries(std::move(contents.entries), tasks);
    Executor_config config;
    config.threads = 3;
    config.base_seed = 5;
    config.preloaded = &preloaded;
    Run_tally tally;
    const std::vector<Task_result> resumed = run_sweep(tasks, registry, config, &tally);
    EXPECT_EQ(tally.resumed, keep - 2);
    EXPECT_EQ(tally.ok, tasks.size());
    EXPECT_EQ(to_json(resumed, aggregate(resumed)), reference_json);
}

TEST(Journal, CorruptCrcLineIsDroppedNotFatal)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::vector<Sweep_task> tasks = expand(grid, registry);
    const Journal_header header{grid_fingerprint(grid), 1, tasks.size(), 1, 1};

    Temp_path journal{"journal_corrupt.anj"};
    run_with_journal(tasks, registry, header, journal.path, 1);

    // Flip one payload byte of the third entry; its CRC no longer
    // matches and the loader must drop exactly that line.
    std::ifstream in{journal.path};
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    in.close();
    ASSERT_GT(lines.size(), 5u);
    lines[4][lines[4].size() / 2] ^= 0x01;
    std::ofstream out{journal.path, std::ios::trunc};
    for (const std::string& line : lines)
        out << line << "\n";
    out.close();

    const Journal_contents contents = load_journal(journal.path);
    EXPECT_EQ(contents.dropped_lines, 1u);
    EXPECT_EQ(contents.entries.size(), tasks.size() - 1);
}

TEST(Journal, ErrorEntriesRoundTripWithMessage)
{
    std::vector<Sweep_task> tasks(2);
    tasks[0].index = 0;
    tasks[1].index = 1;
    Task_result errored;
    errored.task = tasks[1];
    errored.seed = 99;
    errored.status = Task_status::error;
    errored.attempts = 3;
    errored.error = "boom: axis=7, |weird| 100% \"chars\"\nnewline";

    Temp_path journal{"journal_error.anj"};
    {
        Journal_writer writer{journal.path, Journal_header{1, 2, 2, 1, 1}, true};
        writer.append(errored);
    }
    Journal_contents contents = load_journal(journal.path);
    ASSERT_EQ(contents.entries.size(), 1u);
    EXPECT_EQ(contents.entries[0].status, Task_status::error);
    EXPECT_EQ(contents.entries[0].attempts, 3u);
    EXPECT_EQ(contents.entries[0].error, errored.error);

    const std::map<std::size_t, Task_result> preloaded =
        preload_from_entries(std::move(contents.entries), tasks);
    ASSERT_EQ(preloaded.size(), 1u);
    EXPECT_EQ(preloaded.at(1).error, errored.error);
}

TEST(Journal, CompatibilityRejectsEveryMismatch)
{
    const Sweep_grid grid = small_grid();
    const Journal_header header{grid_fingerprint(grid), 7, 12, 2, 3};

    std::string why;
    EXPECT_TRUE(journal_compatible(header, grid, 7, 12, 2, 3, &why)) << why;

    Sweep_grid other = grid;
    other.snr_db.push_back(30.0);
    EXPECT_FALSE(journal_compatible(header, other, 7, 12, 2, 3, &why));
    EXPECT_NE(why.find("fingerprint"), std::string::npos);

    EXPECT_FALSE(journal_compatible(header, grid, 8, 12, 2, 3, &why));
    EXPECT_NE(why.find("seed"), std::string::npos);
    EXPECT_FALSE(journal_compatible(header, grid, 7, 13, 2, 3, &why));
    EXPECT_NE(why.find("task count"), std::string::npos);
    EXPECT_FALSE(journal_compatible(header, grid, 7, 12, 1, 3, &why));
    EXPECT_NE(why.find("shard"), std::string::npos);
}

TEST(Journal, FingerprintTracksEveryAxis)
{
    const Sweep_grid base = small_grid();
    const std::uint64_t reference = grid_fingerprint(base);
    EXPECT_EQ(grid_fingerprint(base), reference); // stable

    Sweep_grid changed = base;
    changed.repetitions = 4;
    EXPECT_NE(grid_fingerprint(changed), reference);
    changed = base;
    changed.payload_bits = {1024};
    EXPECT_NE(grid_fingerprint(changed), reference);
    changed = base;
    changed.schemes = {"anc"};
    EXPECT_NE(grid_fingerprint(changed), reference);
    changed = base;
    changed.math_profiles = {dsp::Math_profile::fast};
    EXPECT_NE(grid_fingerprint(changed), reference);
}

TEST(Journal, LoadRejectsNonJournalFiles)
{
    Temp_path bogus{"journal_bogus.anj"};
    std::ofstream{bogus.path} << "this is not a journal\n";
    EXPECT_THROW(load_journal(bogus.path), std::runtime_error);
    EXPECT_THROW(load_journal(bogus.path + ".does-not-exist"), std::runtime_error);
}

TEST(Journal, PreloadIgnoresOtherShardsIndices)
{
    // Entries for global indices 0..5, but the task vector is shard 2/3
    // (indices 1 and 4): only those two must preload, keyed by POSITION.
    std::vector<Sweep_task> all(6);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i].index = i;
    const std::vector<Sweep_task> shard = shard_tasks(all, 2, 3);
    ASSERT_EQ(shard.size(), 2u);

    std::vector<Journal_entry> entries(6);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        entries[i].index = i;
        entries[i].seed = 100 + i;
    }
    const std::map<std::size_t, Task_result> preloaded =
        preload_from_entries(std::move(entries), shard);
    ASSERT_EQ(preloaded.size(), 2u);
    EXPECT_EQ(preloaded.at(0).seed, 101u); // global index 1 -> position 0
    EXPECT_EQ(preloaded.at(1).seed, 104u); // global index 4 -> position 1
    EXPECT_EQ(preloaded.at(0).task.index, 1u);
}

} // namespace
} // namespace anc::engine
