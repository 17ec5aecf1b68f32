// Multi-threaded, deterministic sweep execution.
//
// Determinism contract: a task always runs with seed
// `mix_seed(base_seed, task.seed_index)` and stores its result at its
// own slot, so the result vector — and everything aggregated from it in
// order — is bit-identical no matter how many worker threads ran the
// sweep or how the OS scheduled them.  Threads only race for *which*
// task to pull next (one atomic counter); they never share simulation
// state.  Because seed_index collapses the scheme axis, every scheme at
// a given (grid point, repetition) sees the same channel realization —
// the paired-run design behind the paper's per-run gain CDFs.
//
// Fault tolerance (ENGINE.md "Fault tolerance"): the executor can
// isolate per-task failures into Task_status::error outcomes (with
// bounded retry) instead of tearing the sweep down, drain gracefully on
// a cancellation flag, stream completed results in task order through a
// bounded pending window (`on_result`), journal them in completion
// order (`on_complete`), and resume from results a previous process
// already completed (`preloaded`).  Per-task seeds are pure functions
// of (base_seed, seed_index), so a resumed or sharded sweep is
// byte-identical to an uninterrupted single-process one.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "engine/sweep.h"
#include "util/obs.h"

namespace anc::engine {

/// What became of one task slot.  `skipped` is the default — a slot the
/// executor never ran (drained after cancellation, or never reached
/// because a non-isolated error aborted the sweep).
enum class Task_status : std::uint8_t { skipped, ok, error };

const char* to_string(Task_status status);

struct Task_result {
    Sweep_task task;
    std::uint64_t seed = 0; ///< the derived seed the scenario ran with
    Scenario_result result;
    Task_status status = Task_status::skipped;
    /// Times the scenario was attempted (1 = first try succeeded).  Kept
    /// from the journal for preloaded results.
    std::uint32_t attempts = 0;
    /// what() of the last exception when status == error.
    std::string error;
    /// True when this result was supplied via Executor_config::preloaded
    /// (a resumed sweep) rather than executed by this process.  Resumed
    /// slots carry no telemetry and are excluded from the merged
    /// Sweep_telemetry (their timings belong to the previous process).
    bool resumed = false;
};

struct Executor_config {
    /// Worker threads; 0 means "one per hardware thread".
    std::size_t threads = 0;
    /// Root of the per-task seed derivation.
    std::uint64_t base_seed = 1;
    /// When set, the executor binds an obs::Recorder to every worker,
    /// stamps each Task_result's `result.telemetry` (counters, stage
    /// times, wall/queue time, worker index) and fills this struct with
    /// the merged sweep totals after the workers join.  Merging walks
    /// results in task order, so counter totals are thread-invariant.
    /// Leave null (the default) for zero-overhead runs.
    obs::Sweep_telemetry* telemetry = nullptr;

    // ---- fault isolation -------------------------------------------
    /// Default (false): the first exception a scenario throws aborts the
    /// sweep and is rethrown on the calling thread — the historical
    /// contract.  True: the failing task is retried up to `max_attempts`
    /// times total, then recorded as Task_status::error (with the
    /// exception's what() in Task_result::error) and the sweep carries
    /// on.  Failures are part of the deterministic result surface: a
    /// task that throws deterministically errors identically on every
    /// run, so resumed/sharded sweeps still merge byte-identically.
    bool isolate_faults = false;
    /// Attempts per task when isolating (>= 1).  Every attempt uses the
    /// same derived seed: a deterministic failure burns its retries and
    /// errors; only transient faults (resource exhaustion, ...) can pass
    /// on a later attempt.
    std::size_t max_attempts = 1;

    // ---- streaming --------------------------------------------------
    /// Serialized hook fired once per finished (executed or preloaded)
    /// task in TASK-INDEX ORDER: completions land in a pending window
    /// (O(live out-of-order results), in practice O(threads)) and drain
    /// in order.  This is the streaming row sink — with collect_results
    /// false it is the only way results leave the executor.
    std::function<void(const Task_result&)> on_result;
    /// Serialized hook fired once per EXECUTED task in COMPLETION ORDER,
    /// before the task enters the pending window — the journal's append
    /// point (a result is durable the moment it completes, not when the
    /// reorder window reaches it).  Preloaded tasks never re-fire it.
    /// Fires for every terminal outcome, ok and error alike, so it is
    /// also the progress hook: its call count reaches (tasks - preloaded).
    /// The executor does NOT throttle: callbacks that do I/O (progress
    /// lines, checkpoints) must rate-limit themselves —
    /// anc::Rate_limiter (util/rate_limiter.h) is the tool, and
    /// bench/anc_sweep the reference stderr line.
    std::function<void(const Task_result&)> on_complete;
    /// False: run_sweep returns an empty vector and results exist only
    /// as on_result/on_complete callbacks — O(pending window) memory,
    /// the `anc_sweep --stream` mode.  True (default): the full result
    /// vector is materialized and returned, as always.
    bool collect_results = true;

    // ---- checkpoint / resume / cancellation -------------------------
    /// Results a previous process already completed, keyed by POSITION
    /// in the task vector handed to run_sweep (for a full grid that
    /// equals Sweep_task::index; for a shard it is the in-shard
    /// position).  The executor consumes (moves from) the map, never
    /// re-runs these positions, and feeds them through on_result in
    /// order like any other completion.
    std::map<std::size_t, Task_result>* preloaded = nullptr;
    /// Cooperative cancellation (the SIGINT/SIGTERM drain): when the
    /// pointee becomes true, workers finish their in-flight task and
    /// stop pulling new ones.  Unexecuted slots keep Task_status::skipped
    /// (with their task and seed stamped); everything already completed
    /// still reaches on_result/on_complete, so journals and partial
    /// emissions are complete up to the drain.  A flag set before the
    /// call runs nothing: only the preloaded results come back.
    const std::atomic<bool>* cancel = nullptr;
};

/// Tallies of a finished (or drained) sweep — the executor's summary of
/// what actually happened, for exit codes and the one-line report.
struct Run_tally {
    std::size_t ok = 0;
    std::size_t errors = 0;
    std::size_t skipped = 0;
    std::size_t resumed = 0; ///< preloaded results (counted in ok/errors too)
    bool cancelled = false;  ///< the cancel flag was observed set
};

/// The seed a task with this seed_index runs with (mix_seed of base and
/// index) — exposed so tests and drivers can reproduce any single task
/// in isolation.
std::uint64_t derive_task_seed(std::uint64_t base_seed, std::size_t seed_index);

/// The worker count a config resolves to: config.threads, else
/// std::thread::hardware_concurrency() (at least 1).
std::size_t resolve_thread_count(const Executor_config& config);

/// Run every task (scenarios resolved through `registry`) and return
/// results ordered by task index (empty when config.collect_results is
/// false).  Without fault isolation, the first exception thrown by a
/// scenario is rethrown on the calling thread after all workers stop.
/// `tally`, when non-null, receives the ok/error/skipped/resumed counts.
std::vector<Task_result> run_sweep(const std::vector<Sweep_task>& tasks,
                                   const Scenario_registry& registry,
                                   const Executor_config& config = {},
                                   Run_tally* tally = nullptr);

} // namespace anc::engine
