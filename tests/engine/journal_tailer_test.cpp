// Journal_tailer edge cases (engine/journal.h): the coordinator's
// liveness watermark must survive everything a racing worker can do to
// the file under it — replacement, shrinkage, torn tails that later
// complete, bursty appends.

#include "engine/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "util/rng.h"

namespace anc::engine {
namespace {

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
            result.metrics.packet_ber.add(rng.next_double() * 0.05);
            result.scalars["iters"] = rng.next_double() * 1e9;
            return result;
        }));
    return registry;
}

struct Temp_path {
    explicit Temp_path(const std::string& name) : path{testing::TempDir() + name}
    {
        std::remove(path.c_str());
    }
    ~Temp_path() { std::remove(path.c_str()); }
    std::string path;
};

/// A finished journal's raw bytes, plus its parsed truth.
struct Built_journal {
    std::string bytes;
    Journal_contents contents;
};

Built_journal build_journal(const std::string& path, std::size_t repetitions = 3)
{
    const Scenario_registry registry = noisy_registry();
    Sweep_grid grid;
    grid.scenarios = {"noisy"};
    grid.snr_db = {10.0, 20.0};
    grid.repetitions = repetitions;
    const std::vector<Sweep_task> tasks = expand(grid, registry);
    Journal_writer writer{
        path, Journal_header{grid_fingerprint(grid), 77, tasks.size(), 1, 1},
        /*truncate=*/true};
    Executor_config config;
    config.threads = 1;
    config.base_seed = 77;
    config.on_complete = [&writer](const Task_result& r) { writer.append(r); };
    run_sweep(tasks, registry, config);
    writer.flush();

    Built_journal built;
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    built.bytes = buffer.str();
    built.contents = load_journal(path);
    return built;
}

void write_bytes(const std::string& path, const std::string& bytes)
{
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << bytes;
}

void append_bytes(const std::string& path, const std::string& bytes)
{
    std::ofstream out{path, std::ios::binary | std::ios::app};
    out << bytes;
}

TEST(JournalTailer, TornFinalLineIsDeliveredOnceItCompletes)
{
    Temp_path scratch{"tailer_torn_src.anj"};
    const Built_journal built = build_journal(scratch.path);
    const std::string& bytes = built.bytes;

    Temp_path live{"tailer_torn.anj"};
    // Everything except the second half of the final line.
    const std::size_t final_start = bytes.rfind('\n', bytes.size() - 2) + 1;
    const std::size_t torn_at = final_start + (bytes.size() - final_start) / 2;
    write_bytes(live.path, bytes.substr(0, torn_at));

    Journal_tailer tailer{live.path};
    std::vector<Journal_entry> got = tailer.poll();
    EXPECT_EQ(got.size(), built.contents.entries.size() - 1);
    EXPECT_EQ(tailer.dropped_lines(), 0u); // torn tail = "not yet", not corrupt

    // Nothing new on a re-poll: the partial line stays pending.
    EXPECT_TRUE(tailer.poll().empty());

    // The writer finishes the line; exactly the missing entry arrives.
    append_bytes(live.path, bytes.substr(torn_at));
    got = tailer.poll();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got.front().index, built.contents.entries.back().index);
    EXPECT_EQ(tailer.entries_seen(), built.contents.entries.size());
    EXPECT_EQ(tailer.dropped_lines(), 0u);
}

TEST(JournalTailer, InterleavedAppendBurstsDeliverEveryEntryExactlyOnce)
{
    Temp_path scratch{"tailer_burst_src.anj"};
    const Built_journal built = build_journal(scratch.path);
    const std::string& bytes = built.bytes;

    Temp_path live{"tailer_burst.anj"};
    write_bytes(live.path, "");

    Journal_tailer tailer{live.path};
    std::vector<Journal_entry> got;
    // Append in awkward 97-byte bursts (never line-aligned), polling
    // after every burst.
    for (std::size_t at = 0; at < bytes.size(); at += 97) {
        append_bytes(live.path, bytes.substr(at, 97));
        for (Journal_entry& entry : tailer.poll())
            got.push_back(std::move(entry));
    }
    ASSERT_EQ(got.size(), built.contents.entries.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].index, built.contents.entries[i].index);
    EXPECT_EQ(tailer.dropped_lines(), 0u);
    EXPECT_TRUE(tailer.have_header());
}

TEST(JournalTailer, FileReplacedMidTailRestartsAndRedelivers)
{
    Temp_path scratch{"tailer_replace_src.anj"};
    const Built_journal built = build_journal(scratch.path);
    const std::string& bytes = built.bytes;

    Temp_path live{"tailer_replace.anj"};
    const std::size_t half = bytes.find('\n', bytes.size() / 2) + 1;
    write_bytes(live.path, bytes.substr(0, half));

    Journal_tailer tailer{live.path};
    const std::size_t first_batch = tailer.poll().size();
    ASSERT_GT(first_batch, 0u);

    // A relaunched worker truncates and rewrites the journal from
    // scratch (fresh attempt).  The tailer must notice the shrink,
    // restart from byte 0, and redeliver — the coordinator dedups by
    // task index, so redelivery is harmless; silence would not be.
    write_bytes(live.path, bytes.substr(0, half / 2));
    tailer.poll(); // may deliver a partial re-read; must not throw
    write_bytes(live.path, bytes);
    tailer.poll();

    // After the restart the full file was consumed: every entry was
    // delivered at least once across the tailer's lifetime.
    EXPECT_GE(tailer.entries_seen(), built.contents.entries.size());
    EXPECT_TRUE(tailer.have_header());
}

TEST(JournalTailer, ShrunkFileNeverWedgesTheWatermark)
{
    Temp_path scratch{"tailer_shrink_src.anj"};
    const Built_journal built = build_journal(scratch.path);
    const std::string& bytes = built.bytes;

    Temp_path live{"tailer_shrink.anj"};
    write_bytes(live.path, bytes);
    Journal_tailer tailer{live.path};
    ASSERT_EQ(tailer.poll().size(), built.contents.entries.size());

    // Shrink to just magic + header, then grow back to full: the
    // watermark must keep moving (restart + redelivery), proving a
    // shrink cannot make a live worker look stalled forever.
    const std::size_t two_lines = bytes.find('\n', bytes.find('\n') + 1) + 1;
    write_bytes(live.path, bytes.substr(0, two_lines));
    tailer.poll();
    const std::size_t before = tailer.entries_seen();
    write_bytes(live.path, bytes);
    tailer.poll();
    EXPECT_GT(tailer.entries_seen(), before);
}

} // namespace
} // namespace anc::engine
