#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "dsp/workspace.h"
#include "util/obs.h"
#include "util/rng.h"

namespace anc::engine {

const char* to_string(Task_status status)
{
    switch (status) {
    case Task_status::ok: return "ok";
    case Task_status::error: return "error";
    case Task_status::skipped: return "skipped";
    }
    return "skipped";
}

namespace {

/// what() of a std::exception, else "unknown exception".
std::string error_message(const std::exception_ptr& error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

std::uint64_t derive_task_seed(std::uint64_t base_seed, std::size_t seed_index)
{
    return mix_seed(base_seed, seed_index);
}

std::size_t resolve_thread_count(const Executor_config& config)
{
    std::size_t threads = config.threads;
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    return threads == 0 ? 1 : threads;
}

std::vector<Task_result> run_sweep(const std::vector<Sweep_task>& tasks,
                                   const Scenario_registry& registry,
                                   const Executor_config& config,
                                   Run_tally* tally)
{
    std::vector<Task_result> results;
    if (config.collect_results)
        results.resize(tasks.size());
    Run_tally counts;
    if (tasks.empty()) {
        if (tally)
            *tally = counts;
        return results;
    }

    // Resolve every scenario up front so a bad name fails fast on the
    // calling thread, not inside a worker.
    std::vector<const Scenario*> scenarios;
    scenarios.reserve(tasks.size());
    for (const Sweep_task& task : tasks)
        scenarios.push_back(&registry.at(task.scenario));

    const std::size_t thread_count =
        std::min(resolve_thread_count(config), tasks.size());

    using clock = std::chrono::steady_clock;
    const bool tracing = config.telemetry != nullptr;
    const clock::time_point sweep_start = clock::now();
    std::vector<obs::Worker_stats> worker_stats;
    obs::Sweep_telemetry merged;
    if (tracing)
        worker_stats.resize(thread_count);

    // Positions a previous process already completed: never re-run, but
    // their results flow through the ordered emission path like any
    // other completion so a resumed stream is indistinguishable from an
    // uninterrupted one.
    std::vector<char> done(tasks.size(), 0);

    // Ordered emission: completions land in `window` and drain to
    // on_result strictly by position.  The window holds only results
    // whose predecessors are still running — O(threads) in practice —
    // plus, at the very start of a resumed run, the preloaded results
    // (which the first drain below flushes immediately).
    std::mutex emit_mutex;
    std::map<std::size_t, Task_result> window;
    std::size_t next_emit = 0;

    // Emit one completed result: merge its telemetry (index order, so
    // totals are thread-invariant), hand it to the streaming sink, tally
    // it, and park it in the result vector.  Caller holds emit_mutex.
    const auto emit_one = [&](std::size_t position, Task_result& completed) {
        if (tracing && !completed.resumed) {
            merged.counters.merge(completed.result.telemetry.counters);
            merged.stages.merge(completed.result.telemetry.stages);
            merged.latency.add(completed.result.telemetry.wall_ns);
        }
        if (config.on_result)
            config.on_result(completed);
        switch (completed.status) {
        case Task_status::ok: ++counts.ok; break;
        case Task_status::error: ++counts.errors; break;
        case Task_status::skipped: break;
        }
        if (config.collect_results)
            results[position] = std::move(completed);
    };

    // Drain the in-order prefix of the window.  Caller holds emit_mutex.
    const auto drain = [&] {
        while (!window.empty() && window.begin()->first == next_emit) {
            emit_one(next_emit, window.begin()->second);
            window.erase(window.begin());
            ++next_emit;
        }
    };

    if (config.preloaded) {
        for (auto& [position, preloaded] : *config.preloaded) {
            if (position >= tasks.size())
                continue;
            done[position] = 1;
            ++counts.resumed;
            Task_result slot = std::move(preloaded);
            // The journal stores index + seed + result; the task config
            // is re-derived from the grid, and the seed is a pure
            // function of it — stamp both so preloaded rows are
            // indistinguishable from executed ones.
            slot.task = tasks[position];
            slot.seed = derive_task_seed(config.base_seed, tasks[position].seed_index);
            slot.resumed = true;
            window.emplace(position, std::move(slot));
        }
        const std::lock_guard<std::mutex> lock{emit_mutex};
        drain();
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::once_flag error_once;
    std::atomic<bool> cancelled{false};

    const auto worker = [&](std::size_t worker_index) {
        // Each worker owns one Workspace for its whole lifetime, so the
        // scenarios' sample-pipeline scratch buffers are recycled across
        // tasks instead of reallocated per run.  Results are unaffected:
        // leases always hand out cleared buffers (see dsp/workspace.h;
        // the workspace-regression test compares emitted JSON bytes).
        // The obs::Recorder follows the same lease: one per worker,
        // bound only when tracing, so telemetry-off runs skip even the
        // thread-local store.
        dsp::Workspace workspace;
        const dsp::Workspace::Bind bind{workspace};
        obs::Recorder recorder;
        std::optional<obs::Recorder::Bind> obs_bind;
        if (tracing)
            obs_bind.emplace(recorder);
        for (;;) {
            if (config.cancel && config.cancel->load(std::memory_order_relaxed)) {
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
            const std::size_t i = next.fetch_add(1);
            if (i >= tasks.size())
                return;
            if (done[i])
                continue; // completed by a previous process (resume)
            Task_result slot;
            slot.task = tasks[i];
            slot.seed = derive_task_seed(config.base_seed, tasks[i].seed_index);
            const std::size_t max_attempts =
                config.isolate_faults ? std::max<std::size_t>(config.max_attempts, 1)
                                      : 1;
            for (;;) {
                ++slot.attempts;
                try {
                    if (tracing) {
                        recorder.begin_task();
                        const clock::time_point task_start = clock::now();
                        slot.result = scenarios[i]->run(tasks[i].config, slot.seed);
                        const clock::time_point task_end = clock::now();
                        obs::Task_telemetry& telemetry = slot.result.telemetry;
                        telemetry = recorder.task();
                        telemetry.wall_ns = static_cast<std::uint64_t>(
                            std::chrono::nanoseconds{task_end - task_start}.count());
                        telemetry.queue_ns = static_cast<std::uint64_t>(
                            std::chrono::nanoseconds{task_start - sweep_start}.count());
                        telemetry.worker = static_cast<std::uint32_t>(worker_index);
                        worker_stats[worker_index].busy_ns += telemetry.wall_ns;
                        ++worker_stats[worker_index].tasks;
                    } else {
                        slot.result = scenarios[i]->run(tasks[i].config, slot.seed);
                    }
                    slot.status = Task_status::ok;
                    break;
                } catch (...) {
                    if (!config.isolate_faults) {
                        std::call_once(error_once,
                                       [&] { first_error = std::current_exception(); });
                        next.store(tasks.size()); // drain remaining work
                        return;
                    }
                    if (slot.attempts >= max_attempts) {
                        slot.status = Task_status::error;
                        slot.error = error_message(std::current_exception());
                        slot.result = Scenario_result{}; // no partial state escapes
                        break;
                    }
                }
            }
            {
                // One mutex serializes every consumer-facing hook: the
                // journal append (completion order, BEFORE anything else
                // reads the result — Cdf sample order must be captured
                // pre-aggregation) and the ordered on_result drain.
                const std::lock_guard<std::mutex> lock{emit_mutex};
                if (config.on_complete)
                    config.on_complete(slot);
                window.emplace(i, std::move(slot));
                drain();
            }
        }
    };

    if (thread_count <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> workers;
        workers.reserve(thread_count);
        for (std::size_t t = 0; t < thread_count; ++t)
            workers.emplace_back(worker, t);
        for (std::thread& thread : workers)
            thread.join();
    }

    if (first_error)
        std::rethrow_exception(first_error);

    {
        // A cancelled (or resumed-with-holes) run can leave completed
        // results stranded behind never-executed positions.  Flush them
        // in ascending index order — the stream stays index-sorted, just
        // with gaps where tasks were drained.
        const std::lock_guard<std::mutex> lock{emit_mutex};
        for (auto& [position, completed] : window)
            emit_one(position, completed);
        window.clear();
    }
    // A slot never run still names its task, so a drained sweep's rows
    // keep their identity.
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].status == Task_status::skipped) {
            results[i].task = tasks[i];
            results[i].seed = derive_task_seed(config.base_seed, tasks[i].seed_index);
        }
    }

    counts.skipped = tasks.size() - counts.ok - counts.errors;
    counts.cancelled = cancelled.load(std::memory_order_relaxed);
    if (tally)
        *tally = counts;

    if (tracing) {
        // The counter/stage/latency totals were merged at the ordered
        // drain point — task-index order, never completion order — so
        // they are identical for any thread count.  Resumed slots are
        // excluded: their timings belong to the process that ran them.
        obs::Sweep_telemetry& sweep = *config.telemetry;
        sweep = std::move(merged);
        sweep.threads = thread_count;
        sweep.tasks = tasks.size();
        sweep.wall_ns = static_cast<std::uint64_t>(
            std::chrono::nanoseconds{clock::now() - sweep_start}.count());
        sweep.workers = std::move(worker_stats);
    }
    return results;
}

} // namespace anc::engine
