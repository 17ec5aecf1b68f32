// Adversarial journal inputs (ENGINE.md "Fault tolerance"): whatever a
// crash, a torn write, bit rot, or a concatenation of shard files does
// to an anc.journal.v1, the loader must never throw past a valid
// header, never deliver the same task index twice through
// preload_from_entries, and journal_compatible must reject every
// header whose *content* was tampered with — even when the line's CRC
// was recomputed to match.

#include "engine/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "util/crc.h"
#include "util/rng.h"

namespace anc::engine {
namespace {

/// A journal line with a valid CRC over `payload`, so the tests can
/// forge "valid" lines with tampered payloads.
std::string stamp(const std::string& payload)
{
    char crc[12];
    std::snprintf(crc, sizeof crc, "%08x ", crc32_bytes(payload));
    return crc + payload + "\n";
}

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
            result.metrics.airtime_symbols = 1.0 + rng.next_double() * 1e-13;
            result.metrics.packet_ber.add(rng.next_double() * 0.05);
            result.series["phase err"].add(rng.next_double());
            result.scalars["iters"] = rng.next_double() * 1e9;
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

struct Temp_path {
    explicit Temp_path(const std::string& name) : path{testing::TempDir() + name}
    {
        std::remove(path.c_str());
    }
    ~Temp_path() { std::remove(path.c_str()); }
    std::string path;
};

/// Journal shard K/S of the small grid under `seed` and return the raw
/// file bytes.
std::string build_journal_bytes(const Scenario_registry& registry,
                                std::uint64_t seed, std::size_t k, std::size_t s,
                                const std::string& path)
{
    const Sweep_grid grid = small_grid();
    const std::vector<Sweep_task> all = expand(grid, registry);
    const std::vector<Sweep_task> mine = s > 1 ? shard_tasks(all, k, s) : all;
    {
        Journal_writer writer{
            path, Journal_header{grid_fingerprint(grid), seed, all.size(), k, s},
            true};
        Executor_config config;
        config.threads = 1;
        config.base_seed = seed;
        config.on_complete = [&writer](const Task_result& r) { writer.append(r); };
        run_sweep(mine, registry, config);
        writer.flush();
    }
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void write_bytes(const std::string& path, const std::string& bytes)
{
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loaded entries must be usable without double counting: every index
/// unique, every index a real task, preload keeps them all.
void expect_no_double_count(Journal_contents& contents,
                            const std::vector<Sweep_task>& tasks)
{
    std::set<std::uint64_t> indices;
    for (const Journal_entry& entry : contents.entries) {
        EXPECT_LT(entry.index, tasks.size());
        indices.insert(entry.index);
    }
    const std::size_t unique = indices.size();
    const std::map<std::size_t, Task_result> preloaded =
        preload_from_entries(std::move(contents.entries), tasks);
    EXPECT_EQ(preloaded.size(), unique);
}

TEST(JournalFuzz, TruncationAtEveryByteNeverThrowsPastTheHeader)
{
    const Scenario_registry registry = noisy_registry();
    const std::vector<Sweep_task> tasks = expand(small_grid(), registry);
    Temp_path source{"fuzz_trunc_src.anj"};
    Temp_path mutated{"fuzz_trunc.anj"};
    const std::string bytes = build_journal_bytes(registry, 7, 1, 1, source.path);

    // The first byte offset at which magic + header are both complete.
    const std::size_t header_end = bytes.find('\n', bytes.find('\n') + 1) + 1;
    ASSERT_GT(header_end, 0u);

    for (std::size_t len = 0; len <= bytes.size(); ++len) {
        write_bytes(mutated.path, bytes.substr(0, len));
        if (len < header_end) {
            // No complete header yet: rejection must be the documented
            // std::runtime_error, never a crash or a silent success.
            EXPECT_THROW(load_journal(mutated.path), std::runtime_error) << len;
            continue;
        }
        Journal_contents contents;
        ASSERT_NO_THROW(contents = load_journal(mutated.path)) << "length " << len;
        EXPECT_LE(contents.entries.size(), tasks.size());
        const std::size_t loaded = contents.entries.size();
        expect_no_double_count(contents, tasks);

        // The --resume reader: every entry that survives the cut becomes
        // its own preloaded task position, none lost and none merged.
        const std::map<std::size_t, Task_result> preloaded =
            preload_from_entries(load_journal(mutated.path).entries, tasks);
        EXPECT_EQ(preloaded.size(), loaded) << "length " << len;
    }
}

TEST(JournalFuzz, RandomBitFlipsAreDroppedNeverDoubleCounted)
{
    const Scenario_registry registry = noisy_registry();
    const std::vector<Sweep_task> tasks = expand(small_grid(), registry);
    Temp_path source{"fuzz_flip_src.anj"};
    Temp_path mutated{"fuzz_flip.anj"};
    const std::string bytes = build_journal_bytes(registry, 13, 1, 1, source.path);
    const std::size_t header_end = bytes.find('\n', bytes.find('\n') + 1) + 1;

    std::mt19937 rng{20260808u}; // deterministic: failures reproduce
    std::uniform_int_distribution<std::size_t> pos_dist{header_end, bytes.size() - 1};
    std::uniform_int_distribution<int> bit_dist{0, 7};
    std::uniform_int_distribution<int> count_dist{1, 4};

    for (int round = 0; round < 200; ++round) {
        std::string corrupt = bytes;
        const int flips = count_dist(rng);
        for (int f = 0; f < flips; ++f)
            corrupt[pos_dist(rng)] ^= static_cast<char>(1 << bit_dist(rng));
        write_bytes(mutated.path, corrupt);

        Journal_contents contents;
        ASSERT_NO_THROW(contents = load_journal(mutated.path)) << "round " << round;
        // A flipped line is dropped, not misparsed: whatever survives is
        // a subset of the original entries, each index at most once.
        EXPECT_LE(contents.entries.size(), tasks.size());
        expect_no_double_count(contents, tasks);
    }
}

TEST(JournalFuzz, DuplicatedAndShuffledLinesNeverDoubleCount)
{
    const Scenario_registry registry = noisy_registry();
    const std::vector<Sweep_task> tasks = expand(small_grid(), registry);
    Temp_path source{"fuzz_dup_src.anj"};
    Temp_path mutated{"fuzz_dup.anj"};
    const std::string bytes = build_journal_bytes(registry, 29, 1, 1, source.path);

    std::vector<std::string> lines;
    std::istringstream in{bytes};
    for (std::string line; std::getline(in, line);)
        lines.push_back(line + "\n");
    ASSERT_GE(lines.size(), 3u);

    // Every entry line appended 3x in shuffled order — the journal of a
    // worker resumed repeatedly over the same shard.
    std::vector<std::string> entry_lines(lines.begin() + 2, lines.end());
    std::mt19937 rng{4242u};
    std::string out = lines[0] + lines[1];
    for (int repeat = 0; repeat < 3; ++repeat) {
        std::shuffle(entry_lines.begin(), entry_lines.end(), rng);
        for (const std::string& line : entry_lines)
            out += line;
    }
    write_bytes(mutated.path, out);

    Journal_contents contents = load_journal(mutated.path);
    EXPECT_EQ(contents.dropped_lines, 0u);
    EXPECT_EQ(contents.entries.size(), 3 * tasks.size());
    const std::map<std::size_t, Task_result> preloaded =
        preload_from_entries(std::move(contents.entries), tasks);
    EXPECT_EQ(preloaded.size(), tasks.size()); // first occurrence wins, once
}

TEST(JournalFuzz, InterleavedShardJournalsPreloadOnlyOwnedTasks)
{
    const Scenario_registry registry = noisy_registry();
    const std::vector<Sweep_task> all = expand(small_grid(), registry);
    Temp_path src1{"fuzz_il1.anj"};
    Temp_path src2{"fuzz_il2.anj"};
    Temp_path mutated{"fuzz_il.anj"};
    const std::string bytes1 = build_journal_bytes(registry, 7, 1, 2, src1.path);
    const std::string bytes2 = build_journal_bytes(registry, 7, 2, 2, src2.path);

    const auto lines_of = [](const std::string& bytes) {
        std::vector<std::string> lines;
        std::istringstream in{bytes};
        for (std::string line; std::getline(in, line);)
            lines.push_back(line + "\n");
        return lines;
    };
    const std::vector<std::string> l1 = lines_of(bytes1);
    const std::vector<std::string> l2 = lines_of(bytes2);

    // Shard 2's rows spliced into shard 1's journal (a bad concatenation
    // of work-dir files): the loader takes every valid row, and preload
    // against shard 1's task list must keep exactly shard 1's tasks.
    std::string out = l1[0] + l1[1];
    for (std::size_t i = 2; i < std::max(l1.size(), l2.size()); ++i) {
        if (i < l1.size())
            out += l1[i];
        if (i < l2.size())
            out += l2[i];
    }
    write_bytes(mutated.path, out);

    Journal_contents contents = load_journal(mutated.path);
    EXPECT_EQ(contents.entries.size(), all.size());
    const std::vector<Sweep_task> shard1 = shard_tasks(all, 1, 2);
    const std::map<std::size_t, Task_result> preloaded =
        preload_from_entries(std::move(contents.entries), shard1);
    EXPECT_EQ(preloaded.size(), shard1.size());
    for (const auto& [position, result] : preloaded)
        EXPECT_EQ(result.task.index % 2, 0u); // shard 1/2 owns even indices
}

TEST(JournalFuzz, TamperedHeadersWithRecomputedCrcAreRejected)
{
    const Scenario_registry registry = noisy_registry();
    const Sweep_grid grid = small_grid();
    const std::vector<Sweep_task> tasks = expand(grid, registry);
    Temp_path source{"fuzz_hdr_src.anj"};
    Temp_path mutated{"fuzz_hdr.anj"};
    const std::string bytes = build_journal_bytes(registry, 7, 1, 1, source.path);

    const std::size_t magic_end = bytes.find('\n') + 1;
    const std::size_t header_end = bytes.find('\n', magic_end) + 1;
    const std::string magic = bytes.substr(0, magic_end);
    const std::string header_line =
        bytes.substr(magic_end, header_end - magic_end - 1);
    const std::string tail = bytes.substr(header_end);
    const std::string payload = header_line.substr(9); // strip "crc "
    ASSERT_EQ(payload.substr(0, 2), "H ");

    // Each mutation edits one semantic field, then FIXES the CRC so the
    // line is formally valid — journal_compatible must still reject it.
    const auto mutate = [&](const std::string& from, const std::string& to) {
        std::string forged = payload;
        const std::size_t at = forged.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        forged.replace(at, from.size(), to);
        write_bytes(mutated.path, magic + stamp(forged) + tail);

        Journal_contents contents;
        ASSERT_NO_THROW(contents = load_journal(mutated.path)) << from;
        std::string why;
        EXPECT_FALSE(journal_compatible(contents.header, grid, 7, tasks.size(), 1, 1,
                                        &why))
            << "accepted a journal with " << from << " -> " << to;
        EXPECT_FALSE(why.empty());
    };
    mutate("base_seed=7", "base_seed=8");
    mutate("tasks=" + std::to_string(tasks.size()),
           "tasks=" + std::to_string(tasks.size() + 1));
    mutate("shard=1/1", "shard=2/2");
    // One hex digit of the grid fingerprint.
    const std::size_t grid_at = payload.find("grid=");
    ASSERT_NE(grid_at, std::string::npos);
    const char digit = payload[grid_at + 5];
    mutate(payload.substr(grid_at, 6), payload.substr(grid_at, 5)
                                           + (digit == '0' ? "1" : "0"));

    // A header whose required field was REMOVED (CRC fixed) must fail
    // the load outright — incomplete headers are not guessable.
    std::string gutted = payload;
    const std::size_t tasks_at = gutted.find(" tasks=");
    ASSERT_NE(tasks_at, std::string::npos);
    gutted.erase(tasks_at, gutted.find(' ', tasks_at + 1) - tasks_at);
    write_bytes(mutated.path, magic + stamp(gutted) + tail);
    EXPECT_THROW(load_journal(mutated.path), std::runtime_error);
}

} // namespace
} // namespace anc::engine
