// The multi-process sweep coordinator: supervision on top of the
// journal/resume/shard/merge crash-safety contract (ENGINE.md
// "Coordinator").
//
// A coordinator partitions a sweep grid into S deterministic shards
// (engine/sweep.h shard_tasks — round-robin, global indices kept),
// dispatches up to N concurrent worker processes that each run one
// shard with `anc_sweep --shard K/S --journal`, and supervises them:
//
//   - Liveness: each worker's journal is tailed (Journal_tailer); the
//     valid-entry count is the progress watermark.  A worker whose
//     watermark does not advance within `heartbeat_timeout` is declared
//     stalled, SIGKILLed, and its shard reassigned.
//   - Crash recovery: a worker that dies (crash, external SIGKILL,
//     nonzero exit) with an incomplete shard is relaunched with
//     `--resume` against the same journal — completed tasks are never
//     recomputed, only the missing ones run.
//   - Work stealing: with S > N, any worker slot that finishes its
//     shard immediately pulls the next pending one, so stragglers never
//     serialize the run.
//   - Continuous merge: entries stream out of the shard journals as
//     they appear and are re-emitted in GLOBAL task-index order through
//     `on_result` — the same ordered-row contract as
//     Executor_config::on_result — so the merged artifact is
//     byte-identical to an uninterrupted single-process run, while the
//     run is still in flight.
//
// The launcher is a seam (`Worker_launcher`): production uses
// exec_launcher (fork/exec of the anc_sweep binary), tests inject fake
// workers (scripts that copy prebuilt journals, hang, or crash) to
// exercise the watchdog and reassignment machinery hermetically.
//
// Byte-identity argument: every merged row is reconstituted from a
// journal entry exactly as `anc_sweep --merge` reconstitutes it; rows
// are delivered in task-index order and deduplicated by index (first
// occurrence wins, matching preload_from_entries); per-task seeds are
// pure in (base_seed, seed_index).  So the coordinator's output stream
// equals the single-process stream row for row, regardless of worker
// deaths, reassignments, or steals.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/journal.h"
#include "util/subprocess.h"

namespace anc::engine {

/// What the coordinator asks the launcher to start: one worker process
/// that will run (or resume) one shard and journal into `journal_path`.
struct Worker_request {
    std::size_t shard_index = 1; ///< 1-based, as in --shard K/N
    std::size_t shard_count = 1;
    /// The shard journal (shard_journal_path under the work dir); the
    /// coordinator tails this same file for liveness and merge.
    std::string journal_path;
    /// True when the journal already holds a valid header from a prior
    /// attempt — the worker should `--resume` it instead of truncating.
    bool resume = false;
    std::size_t attempt = 1; ///< 1 = first launch of this shard
    std::size_t slot = 0;    ///< worker slot (0-based) taking the shard
};

/// The launcher seam: turn a request into a running child process.
/// Must not block; the returned Subprocess is owned by the coordinator.
using Worker_launcher = std::function<util::Subprocess(const Worker_request&)>;

/// Per-worker-slot liveness summary (the anc.metrics.v1 coordinator
/// section's `workers` array).
struct Worker_slot_stats {
    std::size_t launches = 0;
    std::size_t shards_completed = 0;
    /// Journal entries first observed while this slot ran the shard —
    /// the slot's share of the progress watermark.
    std::size_t tasks_journaled = 0;
    std::size_t watchdog_kills = 0; ///< stalls this slot was killed for
    std::size_t failures = 0;       ///< abnormal exits (crash, nonzero)
    std::uint64_t busy_ns = 0;      ///< wall time with a child attached
};

struct Coordinator_stats {
    std::size_t shards = 0;
    std::size_t workers = 0;
    std::size_t launches = 0;
    /// Launches with attempt > 1: a shard relaunched (with --resume)
    /// after its worker died, stalled, or exited without finishing.
    std::size_t reassignments = 0;
    /// First-attempt launches on a slot that had already run a shard —
    /// the work-stealing pickups that exist only when S > N.
    std::size_t steals = 0;
    std::size_t watchdog_kills = 0;
    /// Worker exits that did not complete their shard (crash, signal,
    /// nonzero status with missing tasks).
    std::size_t worker_failures = 0;
    std::size_t merged_tasks = 0;
    /// Torn/corrupt journal lines dropped across all shard tailers.
    std::size_t dropped_lines = 0;
    std::uint64_t wall_ns = 0;
    std::vector<Worker_slot_stats> slots;
};

struct Coordinator_config {
    std::size_t workers = 2;
    /// Shard count; 0 means "= workers".  S > workers enables stealing.
    std::size_t shards = 0;
    /// Directory for the shard journals (shard_journal_path); must
    /// exist and be writable.
    std::string work_dir;
    /// Supervision cadence: how often journals are polled and children
    /// reaped.
    std::chrono::milliseconds poll_interval{25};
    /// Stall threshold: a running worker whose journal watermark has
    /// not advanced for this long is killed and its shard reassigned.
    /// Must comfortably exceed the longest single task.
    std::chrono::milliseconds heartbeat_timeout{30000};
    /// Total launches allowed per shard before it is declared
    /// permanently failed (>= 1).
    std::size_t max_shard_attempts = 3;
    Worker_launcher launcher; ///< required
    /// Merged-progress hook: (tasks merged so far, total tasks).
    std::function<void(std::size_t, std::size_t)> on_progress;
    /// The continuous-merge row sink: fired once per task, in global
    /// task-index order, as soon as the row's journal entry (and every
    /// earlier index) is available.
    std::function<void(const Task_result&)> on_result;
    /// False: rows exist only via on_result (streaming).  True: the
    /// merged vector is returned in Coordinator_outcome::results.
    bool collect_results = true;
    /// Cooperative cancellation (SIGINT/SIGTERM): workers get SIGTERM
    /// (their own graceful drain), then SIGKILL after a grace window.
    const std::atomic<bool>* cancel = nullptr;
};

struct Coordinator_outcome {
    /// Every task of every shard was merged.
    bool completed = false;
    bool cancelled = false;
    /// Shards that burned max_shard_attempts without completing.
    std::size_t failed_shards = 0;
    Run_tally tally;
    Coordinator_stats stats;
    std::vector<Task_result> results; ///< when config.collect_results
};

/// The canonical journal path for shard K under `work_dir`
/// ("<work_dir>/shard<K>.anj") — shared by the coordinator, the default
/// launcher, and the chaos tests' process discovery.
std::string shard_journal_path(const std::string& work_dir, std::size_t shard_index);

/// The production launcher: fork/exec `worker_bin` (an anc_sweep-compatible
/// CLI) with `grid_argv` (the grid axes + --seed flags, forwarded
/// verbatim so worker headers fingerprint-match the coordinator's grid),
/// `--quiet --threads <worker_threads> --shard K/S` and
/// `--journal`/`--resume` per the request.  Worker stderr is appended to
/// "<work_dir>/worker_shard<K>.log"; stdout goes to /dev/null.
Worker_launcher exec_launcher(std::string worker_bin,
                              std::vector<std::string> grid_argv,
                              std::size_t worker_threads, std::string work_dir);

/// Run `grid` to completion under coordinated multi-process execution.
/// Scenarios resolve through `registry` only for task expansion (the
/// workers do the actual running); `base_seed` must match what the
/// launched workers use.  Throws std::invalid_argument on a bad config
/// (no launcher, zero workers) and std::runtime_error when a worker
/// journal turns out to be incompatible with the grid (a launcher
/// wiring bug, never a data race).
Coordinator_outcome run_coordinated(const Sweep_grid& grid,
                                    const Scenario_registry& registry,
                                    std::uint64_t base_seed,
                                    const Coordinator_config& config);

} // namespace anc::engine
