// anc_coordinator — multi-process sweep supervision over anc_sweep
// (ENGINE.md "Coordinator"): partition the grid into S shards, keep up
// to N `anc_sweep --shard K/S --journal` worker processes running, tail
// their journals for liveness, SIGKILL and reassign stalled or crashed
// workers (--resume, so finished tasks never recompute), steal pending
// shards onto idle workers when S > N, and continuously merge the shard
// journals into the same artifacts anc_sweep itself would emit —
// byte-identical to one uninterrupted single-process run.
//
//   anc_coordinator --worker build/bench/anc_sweep --workers 4 --shards 8
//       --work-dir /tmp/run --scenario alice_bob --snr 16:34:2 --json out.json
//
// The grid flags are the same table anc_sweep parses (bench/sweep_cli.h)
// and are forwarded verbatim to every worker, so the workers' journal
// headers fingerprint-match the coordinator's grid by construction.
// Shard journals and per-worker stderr logs land in --work-dir; rerunning
// the coordinator over a populated work dir resumes it (complete shard
// journals are adopted without relaunching anything).
//
// Exit codes mirror anc_sweep: 0 success, 2 usage, 3 task errors or an
// incomplete merge (a shard burned its retries), 4 interrupted.  A
// one-line summary always lands on stderr, with the supervision counts
// (launches, reassignments, steals, watchdog kills) that the
// --metrics-json manifest reports in full (anc.metrics.v1 `coordinator`
// section, OBSERVABILITY.md).

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "sweep_cli.h"
#include "engine/coordinator.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "util/atomic_file.h"

namespace {

using namespace anc;
using namespace anc::bench;

std::atomic<bool> g_interrupted{false};

extern "C" void handle_signal(int)
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

int usage(const char* argv0, const char* error = nullptr)
{
    if (error != nullptr)
        std::fprintf(stderr, "error: %s\n\n", error);
    std::fprintf(
        stderr,
        "usage: %s --worker BIN --work-dir DIR --scenario NAME [options]\n"
        "\n"
        "%s"
        "\n"
        "coordination:\n"
        "  --worker BIN           the anc_sweep binary to spawn (required)\n"
        "  --workers N            concurrent worker processes (default 2)\n"
        "  --shards S             shard count (default = workers; S > N\n"
        "                         enables work stealing)\n"
        "  --work-dir DIR         shard journals + worker logs (created if\n"
        "                         missing; rerun over it to resume)\n"
        "  --worker-threads N     --threads for each worker (default 1)\n"
        "  --heartbeat-ms MS      liveness watchdog: kill + reassign a worker\n"
        "                         whose journal stalls this long (default 30000)\n"
        "  --poll-ms MS           supervision poll cadence (default 25)\n"
        "  --shard-retries N      extra launches per shard after the first\n"
        "                         before declaring it failed (default 2)\n"
        "\n"
        "output (same artifacts and bytes as a single anc_sweep run):\n"
        "  --json PATH / --csv PATH / --tasks-csv PATH\n"
        "  --metrics-json PATH    anc.metrics.v1 manifest with the\n"
        "                         `coordinator` liveness section\n"
        "  --stream               stream merged rows to --json/--tasks-csv as\n"
        "                         shards report them (O(window) memory)\n"
        "  --quiet                suppress the stdout table and progress line\n"
        "\n"
        "exit codes: 0 ok, 2 usage, 3 task errors or failed shards, 4 interrupted\n",
        argv0, Grid_cli::usage_text);
    return error == nullptr ? 0 : 2;
}

void print_summary_line(const engine::Coordinator_outcome& outcome, bool interrupted)
{
    const engine::Coordinator_stats& stats = outcome.stats;
    std::fprintf(stderr,
                 "anc_coordinator: %zu ok, %zu error, %zu skipped; "
                 "%zu launches, %zu reassignments, %zu steals, "
                 "%zu watchdog kills, %zu failed shards%s\n",
                 outcome.tally.ok, outcome.tally.errors, outcome.tally.skipped,
                 stats.launches, stats.reassignments, stats.steals,
                 stats.watchdog_kills, outcome.failed_shards,
                 interrupted ? " [interrupted]" : "");
}

} // namespace

int main(int argc, char** argv)
{
    engine::Sweep_grid grid;
    grid.scenarios.clear();
    Grid_cli grid_cli{grid};

    std::string worker_bin, work_dir;
    std::string json_path, csv_path, tasks_csv_path, metrics_json_path;
    engine::Coordinator_config config;
    std::size_t worker_threads = 1;
    std::size_t shard_retries = 2;
    bool stream = false;
    bool quiet = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const std::function<std::string()> value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument{arg + " needs a value"};
                return argv[++i];
            };
            if (grid_cli.try_parse(arg, value))
                continue;
            if (arg == "--worker")
                worker_bin = value();
            else if (arg == "--workers")
                config.workers = parse_count(arg, value());
            else if (arg == "--shards")
                config.shards = parse_count(arg, value());
            else if (arg == "--work-dir")
                work_dir = value();
            else if (arg == "--worker-threads")
                worker_threads = parse_count(arg, value());
            else if (arg == "--heartbeat-ms")
                config.heartbeat_timeout =
                    std::chrono::milliseconds{parse_count(arg, value())};
            else if (arg == "--poll-ms")
                config.poll_interval =
                    std::chrono::milliseconds{parse_count(arg, value())};
            else if (arg == "--shard-retries")
                shard_retries = parse_count(arg, value());
            else if (arg == "--json")
                json_path = value();
            else if (arg == "--csv")
                csv_path = value();
            else if (arg == "--tasks-csv")
                tasks_csv_path = value();
            else if (arg == "--metrics-json")
                metrics_json_path = value();
            else if (arg == "--stream")
                stream = true;
            else if (arg == "--quiet")
                quiet = true;
            else if (arg == "--help" || arg == "-h")
                return usage(argv[0]);
            else
                return usage(argv[0], ("unknown argument " + arg).c_str());
        }
        if (worker_bin.empty())
            return usage(argv[0], "--worker BIN is required");
        if (work_dir.empty())
            return usage(argv[0], "--work-dir DIR is required");
        if (grid.scenarios.empty())
            return usage(argv[0], "at least one --scenario is required");
        if (config.workers == 0)
            return usage(argv[0], "--workers must be >= 1");
        if (::mkdir(work_dir.c_str(), 0755) != 0 && errno != EEXIST)
            return usage(argv[0],
                         ("cannot create --work-dir " + work_dir + ": "
                          + std::strerror(errno))
                             .c_str());

        const std::uint64_t base_seed = grid_cli.base_seed;
        config.work_dir = work_dir;
        config.max_shard_attempts = 1 + shard_retries;
        config.launcher = engine::exec_launcher(worker_bin, grid_cli.forwarded(),
                                                worker_threads, work_dir);
        config.cancel = &g_interrupted;

        Progress_line progress;
        if (!quiet && isatty(fileno(stderr)))
            config.on_progress = [&progress](std::size_t done, std::size_t total) {
                progress(done, total);
            };

        // The merged-row sinks: identical wiring to anc_sweep --stream,
        // so the streamed artifacts are byte-identical to its output.
        std::optional<Stream_file> json_stream, tasks_csv_stream;
        std::optional<engine::Json_stream_writer> json_writer;
        std::optional<engine::Tasks_csv_stream_writer> csv_writer;
        engine::Aggregator aggregator;
        if (stream) {
            config.collect_results = false;
            if (!json_path.empty()) {
                json_stream.emplace(json_path);
                json_writer.emplace(json_stream->stream());
            }
            if (!tasks_csv_path.empty()) {
                tasks_csv_stream.emplace(tasks_csv_path);
                csv_writer.emplace(tasks_csv_stream->stream());
            }
            config.on_result = [&](const engine::Task_result& result) {
                // Aggregate BEFORE emitting (Aggregator::add sorts CDFs
                // in place) — the same order as the batch path, so
                // streamed and batch bytes match.
                aggregator.add(result);
                if (json_writer)
                    json_writer->add(result);
                if (csv_writer)
                    csv_writer->add(result);
            };
        }

        struct sigaction action{};
        action.sa_handler = handle_signal;
        sigaction(SIGINT, &action, nullptr);
        sigaction(SIGTERM, &action, nullptr);

        const engine::Scenario_registry& registry =
            engine::Scenario_registry::builtin();
        engine::Coordinator_outcome outcome =
            engine::run_coordinated(grid, registry, base_seed, config);
        const bool interrupted = g_interrupted.load(std::memory_order_relaxed);

        std::vector<engine::Point_summary> points;
        if (stream) {
            points = aggregator.take();
            if (json_writer) {
                json_writer->finish(points);
                json_stream->commit();
            }
            if (csv_writer)
                tasks_csv_stream->commit();
            if (!csv_path.empty())
                write_file_atomic(csv_path, [&](std::ostream& out) {
                    engine::write_summary_csv(out, points);
                });
        } else {
            points = engine::aggregate(outcome.results);
            if (!json_path.empty())
                write_file_atomic(json_path, [&](std::ostream& out) {
                    engine::write_json(out, outcome.results, points);
                });
            if (!csv_path.empty())
                write_file_atomic(csv_path, [&](std::ostream& out) {
                    engine::write_summary_csv(out, points);
                });
            if (!tasks_csv_path.empty())
                write_file_atomic(tasks_csv_path, [&](std::ostream& out) {
                    engine::write_tasks_csv(out, outcome.results);
                });
        }

        if (!quiet)
            engine::print_summary_table(stdout, points);
        if (!metrics_json_path.empty())
            write_file_atomic(metrics_json_path, [&](std::ostream& out) {
                engine::write_coordinator_metrics_json(
                    out, {.driver = "anc_coordinator", .base_seed = base_seed}, grid,
                    outcome);
                out << "\n";
            });

        print_summary_line(outcome, interrupted);
        if (interrupted)
            return 4;
        if (!outcome.completed || outcome.tally.errors > 0)
            return 3;
        return 0;
    } catch (const std::exception& error) {
        return usage(argv[0], error.what());
    }
}
