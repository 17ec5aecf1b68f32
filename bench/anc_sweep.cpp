// anc_sweep — the command-line front-end over the scenario registry: a
// thin argv -> engine::Sweep_grid translation that reuses the engine's
// emitters, so any registered scenario can be swept without writing a
// bench program.
//
//   anc_sweep --scenario alice_bob --snr 16:35:2 --math-profile fast
//             --json out.json
//
// Axis syntax: every numeric axis accepts either a comma list
// ("21,23,25") or a start:stop:step range ("16:35:2", ending on the
// lattice point nearest stop).  --scenario and --scheme repeat.
// Profiles come as a comma list of exact/fast or the shorthand "both"
// (exact,fast); "simd" is an alias of fast.  No axis may repeat a
// value.  A malformed or non-finite number is a usage error.  The
// grid-flag table and axis parsing live in bench/sweep_cli.h.
//
// Output: the aggregate table on stdout (unless --quiet), plus --json /
// --csv artifacts in the engine's anc.sweep.v4 schemas and the
// --metrics-json run manifest (anc.metrics.v1, OBSERVABILITY.md).  All
// file artifacts are written atomically (temp file + rename) — a crash
// or SIGKILL never publishes a truncated document.  Deterministic in
// (--seed, grid): identical results at any --threads value, with or
// without telemetry.
//
// Fault tolerance (ENGINE.md "Fault tolerance"):
//   --stream            emit task rows as they finish, O(window) memory
//   --journal FILE      append a crash-safe anc.journal.v1 checkpoint
//   --resume FILE       skip tasks the journal already completed
//   --shard K/N         run the K-th of N deterministic partitions
//   --merge J1,J2,...   fold shard journals into one result set
//   --task-retries N    re-run a throwing task up to N extra times
// Per-task exceptions become `status=error` rows instead of aborting
// the sweep; SIGINT/SIGTERM drain gracefully, flush the journal, and
// still emit the partial artifacts.  To split a grid across processes
// or hosts, run each `--shard K/N --journal` by hand (resuming any that
// die) and fold the journals with --merge (ENGINE.md "Multi-host").
//
// Exit codes: 0 success, 2 usage or incompatible inputs, 3 at least one
// task errored (or a merge found gaps), 4 interrupted by signal.  A
// one-line `ok/error/skipped` summary always lands on stderr.
//
// When stderr is a TTY and --quiet is not given, a single-line progress
// display (tasks done/total, rate, ETA) updates in place during the run
// — it counts Executor_config::on_complete calls, throttled through
// util/rate_limiter.h (the executor calls the hook once per executed
// task).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "sweep_cli.h"
#include "engine/engine.h"
#include "engine/journal.h"

namespace {

using namespace anc;
using namespace anc::bench;

/// Set by the SIGINT/SIGTERM handler; polled by every worker between
/// tasks (Executor_config::cancel), so a signal drains in-flight tasks
/// instead of killing them mid-run.
std::atomic<bool> g_interrupted{false};

extern "C" void handle_signal(int)
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

int usage(const char* argv0, const char* error = nullptr)
{
    // Exit status: 0 for an explicit --help, 2 for usage errors.
    if (error != nullptr)
        std::fprintf(stderr, "error: %s\n\n", error);
    std::fprintf(
        stderr,
        "usage: %s --scenario NAME [options]\n"
        "\n"
        "%s"
        "\n"
        "execution and output:\n"
        "  --threads N            worker threads (0 = hardware concurrency)\n"
        "  --json PATH            write the full anc.sweep.v4 JSON document\n"
        "  --csv PATH             write the aggregate CSV\n"
        "  --tasks-csv PATH       write the per-task CSV\n"
        "  --metrics-json PATH    collect telemetry, write the anc.metrics.v1\n"
        "                         run manifest (stage timings, counters, ...)\n"
        "  --stream               stream task rows to --json/--tasks-csv as\n"
        "                         they finish (O(window) memory)\n"
        "  --quiet                suppress the stdout table and progress line\n"
        "  --list-scenarios       print registered scenarios and exit\n"
        "\n"
        "fault tolerance (ENGINE.md \"Fault tolerance\"):\n"
        "  --journal FILE         checkpoint completed tasks (anc.journal.v1)\n"
        "  --resume FILE          skip tasks FILE already completed; implies\n"
        "                         --journal FILE unless one is given\n"
        "  --shard K/N            run the K-th of N partitions (1-based)\n"
        "  --merge J1,J2,...      merge shard journals (repeatable); needs the\n"
        "                         same grid flags and --seed as the shards\n"
        "  --task-retries N       extra attempts per throwing task (default 0)\n"
        "\n"
        "exit codes: 0 ok, 2 usage, 3 task errors or merge gaps, 4 interrupted\n",
        argv0, Grid_cli::usage_text);
    return error == nullptr ? 0 : 2;
}

struct Cli_options {
    engine::Sweep_grid grid;
    engine::Executor_config config;
    Artifact_paths artifacts;
    std::string journal_path, resume_path;
    std::vector<std::string> merge_paths;
    std::size_t shard_index = 1, shard_count = 1;
    bool stream = false;
    bool quiet = false;
};

/// Everything the journal header must agree on for this invocation.
engine::Journal_header header_for(const Cli_options& options, std::size_t total_tasks)
{
    engine::Journal_header header;
    header.grid_hash = engine::grid_fingerprint(options.grid);
    header.base_seed = options.config.base_seed;
    header.tasks = total_tasks;
    header.shard_index = options.shard_index;
    header.shard_count = options.shard_count;
    return header;
}

/// The one-line completion contract on stderr (satellite of the exit
/// codes): machine-greppable, always printed, even under --quiet.
void print_summary_line(const engine::Run_tally& tally, bool interrupted)
{
    std::fprintf(stderr, "anc_sweep: %zu ok, %zu error, %zu skipped, resumed %zu%s\n",
                 tally.ok, tally.errors, tally.skipped, tally.resumed,
                 interrupted ? " [interrupted]" : "");
}

int exit_code(const engine::Run_tally& tally, bool interrupted)
{
    if (interrupted)
        return 4;
    return tally.errors > 0 ? 3 : 0;
}

/// --merge: reconstitute n shard journals into the full result set and
/// emit it exactly as a single uninterrupted run would have.
int run_merge(const Cli_options& options)
{
    const engine::Scenario_registry& registry = engine::Scenario_registry::builtin();
    const std::vector<engine::Sweep_task> tasks =
        engine::expand(options.grid, registry);

    std::vector<engine::Journal_entry> entries;
    std::size_t shard_count = 0;
    std::vector<char> shard_seen;
    for (const std::string& path : options.merge_paths) {
        engine::Journal_contents contents = engine::load_journal(path);
        std::string why;
        if (!engine::journal_compatible(contents.header, options.grid,
                                        options.config.base_seed, tasks.size(),
                                        contents.header.shard_index,
                                        contents.header.shard_count, &why))
            throw std::invalid_argument{path + ": " + why};
        if (shard_count == 0) {
            shard_count = contents.header.shard_count;
            shard_seen.assign(shard_count, 0);
        } else if (contents.header.shard_count != shard_count) {
            throw std::invalid_argument{path + ": shard count "
                                        + std::to_string(contents.header.shard_count)
                                        + " != " + std::to_string(shard_count)};
        }
        if (shard_seen[contents.header.shard_index - 1])
            throw std::invalid_argument{path + ": shard "
                                        + std::to_string(contents.header.shard_index)
                                        + "/" + std::to_string(shard_count)
                                        + " appears twice (overlap)"};
        shard_seen[contents.header.shard_index - 1] = 1;
        if (contents.dropped_lines > 0)
            std::fprintf(stderr, "anc_sweep: %s: dropped %zu torn/corrupt lines\n",
                         path.c_str(), contents.dropped_lines);
        for (engine::Journal_entry& entry : contents.entries)
            entries.push_back(std::move(entry));
    }
    for (std::size_t shard = 0; shard < shard_count; ++shard)
        if (!shard_seen[shard])
            throw std::invalid_argument{"no journal for shard "
                                        + std::to_string(shard + 1) + "/"
                                        + std::to_string(shard_count) + " (gap)"};

    std::map<std::size_t, engine::Task_result> preloaded =
        engine::preload_from_entries(std::move(entries), tasks);
    const std::size_t missing = tasks.size() - preloaded.size();
    if (missing > 0)
        std::fprintf(stderr,
                     "anc_sweep: merge is missing %zu of %zu tasks "
                     "(incomplete shard journals)\n",
                     missing, tasks.size());

    // Feed the reconstituted rows through run_sweep with the cancel flag
    // already set: nothing executes (a position no journal holds stays
    // skipped), but ordering, aggregation, and emission follow the exact
    // code path of a live sweep — merge output is byte-identical to a
    // single uninterrupted run by construction.
    const std::atomic<bool> run_nothing{true};
    engine::Executor_config config = options.config;
    config.preloaded = &preloaded;
    config.cancel = &run_nothing;
    engine::Run_tally tally;
    const std::vector<engine::Task_result> results =
        engine::run_sweep(tasks, registry, config, &tally);
    const std::vector<engine::Point_summary> points = engine::aggregate(results);

    if (!options.quiet)
        engine::print_summary_table(stdout, points);
    emit_artifacts(options.artifacts, results, points);
    print_summary_line(tally, false);
    if (missing > 0)
        return 3;
    return exit_code(tally, false);
}

int run_sweep_cli(const Cli_options& options_in)
{
    Cli_options options = options_in;
    const engine::Scenario_registry& registry = engine::Scenario_registry::builtin();
    const std::vector<engine::Sweep_task> all_tasks =
        engine::expand(options.grid, registry);
    std::vector<engine::Sweep_task> tasks = all_tasks;
    if (options.shard_count > 1)
        tasks = engine::shard_tasks(all_tasks, options.shard_index, options.shard_count);

    // --resume: reconstitute completed rows; --resume F without
    // --journal also keeps checkpointing into F, so a sweep can crash
    // and resume any number of times against one file.
    std::map<std::size_t, engine::Task_result> preloaded;
    if (!options.resume_path.empty()) {
        engine::Journal_contents contents = engine::load_journal(options.resume_path);
        std::string why;
        if (!engine::journal_compatible(contents.header, options.grid,
                                        options.config.base_seed, all_tasks.size(),
                                        options.shard_index, options.shard_count, &why))
            throw std::invalid_argument{options.resume_path + ": " + why};
        if (contents.dropped_lines > 0)
            std::fprintf(stderr, "anc_sweep: %s: dropped %zu torn/corrupt lines\n",
                         options.resume_path.c_str(), contents.dropped_lines);
        preloaded = engine::preload_from_entries(std::move(contents.entries), tasks);
        if (options.journal_path.empty())
            options.journal_path = options.resume_path;
    }

    std::unique_ptr<engine::Journal_writer> journal;
    if (!options.journal_path.empty()) {
        const bool fresh = options.journal_path != options.resume_path;
        journal = std::make_unique<engine::Journal_writer>(
            options.journal_path, header_for(options, all_tasks.size()), fresh);
        // Resuming into a NEW journal file: carry the already-completed
        // rows over so the new journal is self-sufficient for the next
        // resume.
        if (fresh && !preloaded.empty()) {
            for (const auto& [position, result] : preloaded)
                journal->append(result);
            journal->flush();
        }
    }

    obs::Sweep_telemetry telemetry;
    if (!options.artifacts.metrics_json.empty())
        options.config.telemetry = &telemetry;
    // on_complete fires once per executed task: the journal's append
    // point and the progress line's tick.
    std::optional<Progress_line> progress;
    if (!options.quiet && isatty(fileno(stderr)))
        progress.emplace(tasks.size() - preloaded.size());
    if (journal || progress)
        options.config.on_complete = [&journal, &progress](const engine::Task_result& result) {
            if (journal)
                journal->append(result);
            if (progress)
                (*progress)();
        };

    options.config.isolate_faults = true;
    options.config.cancel = &g_interrupted;
    if (!preloaded.empty())
        options.config.preloaded = &preloaded;

    // --stream: rows leave the process as tasks finish, and the result
    // vector is only materialized when the metrics manifest (which
    // journals every task) asks for it.
    std::optional<Atomic_file> json_stream, tasks_csv_stream;
    std::optional<engine::Json_stream_writer> json_writer;
    std::optional<engine::Tasks_csv_stream_writer> csv_writer;
    engine::Aggregator aggregator;
    if (options.stream) {
        options.config.collect_results = !options.artifacts.metrics_json.empty();
        if (!options.artifacts.json.empty()) {
            json_stream.emplace(options.artifacts.json);
            json_writer.emplace(json_stream->stream());
        }
        if (!options.artifacts.tasks_csv.empty()) {
            tasks_csv_stream.emplace(options.artifacts.tasks_csv);
            csv_writer.emplace(tasks_csv_stream->stream());
        }
        options.config.on_result = [&](const engine::Task_result& result) {
            // Aggregate BEFORE emitting: Aggregator::add sorts the
            // row's CDFs in place (lazy-sort side effect), and the batch
            // path aggregates everything before writing — matching the
            // order keeps streamed and batch bytes identical.
            aggregator.add(result);
            if (json_writer)
                json_writer->add(result);
            if (csv_writer)
                csv_writer->add(result);
        };
    }

    engine::Run_tally tally;
    const std::vector<engine::Task_result> results =
        engine::run_sweep(tasks, registry, options.config, &tally);
    const bool interrupted = g_interrupted.load(std::memory_order_relaxed);

    if (journal)
        journal->flush();

    std::vector<engine::Point_summary> points;
    if (options.stream) {
        points = aggregator.take();
        if (json_writer) {
            json_writer->finish(points);
            json_stream->commit();
        }
        if (csv_writer)
            tasks_csv_stream->commit();
        emit_artifacts({.csv = options.artifacts.csv}, results, points);
    } else {
        points = engine::aggregate(results);
        emit_artifacts(options.artifacts, results, points);
    }

    if (!options.quiet)
        engine::print_summary_table(stdout, points);
    emit_metrics(options.artifacts,
                 {.driver = "anc_sweep", .base_seed = options.config.base_seed},
                 options.grid, telemetry, results);

    print_summary_line(tally, interrupted);
    return exit_code(tally, interrupted);
}

} // namespace

int main(int argc, char** argv)
{
    Cli_options options;
    options.grid.scenarios.clear();
    Grid_cli grid_cli{options.grid};

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
            if (arg == "--threads")
                options.config.threads = parse_count(arg, value());
            else if (arg == "--json")
                options.artifacts.json = value();
            else if (arg == "--csv")
                options.artifacts.csv = value();
            else if (arg == "--tasks-csv")
                options.artifacts.tasks_csv = value();
            else if (arg == "--metrics-json")
                options.artifacts.metrics_json = value();
            else if (arg == "--journal")
                options.journal_path = value();
            else if (arg == "--resume")
                options.resume_path = value();
            else if (arg == "--shard") {
                const auto [k, n] = parse_shard(value());
                options.shard_index = k;
                options.shard_count = n;
            } else if (arg == "--merge") {
                for (std::string& path : parse_list(value()))
                    options.merge_paths.push_back(std::move(path));
            } else if (arg == "--task-retries")
                options.config.max_attempts = 1 + parse_count(arg, value());
            else if (arg == "--stream")
                options.stream = true;
            else if (arg == "--quiet")
                options.quiet = true;
            else if (arg == "--list-scenarios") {
                for (const std::string& name :
                     engine::Scenario_registry::builtin().names())
                    std::printf("%s\n", name.c_str());
                return 0;
            } else if (arg == "--help" || arg == "-h") {
                return usage(argv[0]);
            } else {
                return usage(argv[0], ("unknown argument " + arg).c_str());
            }
        }
        options.config.base_seed = grid_cli.base_seed;
        if (options.grid.scenarios.empty())
            return usage(argv[0], "at least one --scenario is required");
        if (!options.merge_paths.empty()
            && (!options.journal_path.empty() || !options.resume_path.empty()
                || options.shard_count > 1 || options.stream))
            return usage(argv[0],
                         "--merge excludes --journal/--resume/--shard/--stream");

        struct sigaction action{};
        action.sa_handler = handle_signal;
        sigaction(SIGINT, &action, nullptr);
        sigaction(SIGTERM, &action, nullptr);

        if (!options.merge_paths.empty())
            return run_merge(options);
        return run_sweep_cli(options);
    } catch (const std::exception& error) {
        return usage(argv[0], error.what());
    }
}
