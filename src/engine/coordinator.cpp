#include "engine/coordinator.h"

#include <csignal>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

namespace anc::engine {

namespace {

using clock = std::chrono::steady_clock;

constexpr std::size_t no_slot = std::numeric_limits<std::size_t>::max();

/// Supervision state of one shard: its tailer, the attached child (when
/// running), and the unique-entry count that decides completeness.
struct Shard_state {
    enum class Status { pending, running, done, failed };

    std::size_t index = 1; ///< 1-based shard number
    std::size_t task_count = 0;
    Status status = Status::pending;
    std::size_t attempts = 0;
    std::size_t slot = no_slot;
    util::Subprocess child;
    Journal_tailer tailer;
    clock::time_point last_progress{};
    /// Unique task indices of this shard observed so far (merged or
    /// waiting in the reorder window).  == task_count means complete.
    std::size_t have = 0;
    bool header_checked = false;
};

/// Tasks a round-robin shard K/S owns out of `total` (the number of
/// global indices with index % S == K-1).
std::size_t shard_task_count(std::size_t total, std::size_t shard_index,
                             std::size_t shard_count)
{
    const std::size_t first = shard_index - 1;
    return total > first ? (total - first + shard_count - 1) / shard_count : 0;
}

} // namespace

std::string shard_journal_path(const std::string& work_dir, std::size_t shard_index)
{
    return work_dir + "/shard" + std::to_string(shard_index) + ".anj";
}

Worker_launcher exec_launcher(std::string worker_bin,
                              std::vector<std::string> grid_argv,
                              std::size_t worker_threads, std::string work_dir)
{
    return [worker_bin = std::move(worker_bin), grid_argv = std::move(grid_argv),
            worker_threads, work_dir = std::move(work_dir)](const Worker_request& req) {
        std::vector<std::string> argv;
        argv.reserve(grid_argv.size() + 8);
        argv.push_back(worker_bin);
        argv.insert(argv.end(), grid_argv.begin(), grid_argv.end());
        argv.push_back("--quiet");
        argv.push_back("--threads");
        argv.push_back(std::to_string(worker_threads));
        argv.push_back("--shard");
        argv.push_back(std::to_string(req.shard_index) + "/"
                       + std::to_string(req.shard_count));
        // --resume implies journaling into the same file, so a relaunch
        // keeps every task the dead worker already completed.
        argv.push_back(req.resume ? "--resume" : "--journal");
        argv.push_back(req.journal_path);
        util::Spawn_options options;
        options.stdout_path = "/dev/null";
        options.stderr_path =
            work_dir + "/worker_shard" + std::to_string(req.shard_index) + ".log";
        return util::Subprocess::spawn(argv, options);
    };
}

Coordinator_outcome run_coordinated(const Sweep_grid& grid,
                                    const Scenario_registry& registry,
                                    std::uint64_t base_seed,
                                    const Coordinator_config& config)
{
    if (!config.launcher)
        throw std::invalid_argument{"run_coordinated: a launcher is required"};
    if (config.workers == 0)
        throw std::invalid_argument{"run_coordinated: workers must be >= 1"};
    if (config.max_shard_attempts == 0)
        throw std::invalid_argument{"run_coordinated: max_shard_attempts must be >= 1"};
    if (config.work_dir.empty())
        throw std::invalid_argument{"run_coordinated: work_dir is required"};

    const auto start = clock::now();
    const std::vector<Sweep_task> all_tasks = expand(grid, registry);
    const std::size_t total = all_tasks.size();
    const std::size_t shard_count = config.shards == 0 ? config.workers : config.shards;
    const std::size_t workers = config.workers;

    Coordinator_outcome outcome;
    Coordinator_stats& stats = outcome.stats;
    stats.shards = shard_count;
    stats.workers = workers;
    stats.slots.resize(workers);

    std::vector<Shard_state> shards(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
        Shard_state& shard = shards[k];
        shard.index = k + 1;
        shard.task_count = shard_task_count(total, shard.index, shard_count);
        shard.tailer = Journal_tailer{shard_journal_path(config.work_dir, shard.index)};
        if (shard.task_count == 0)
            shard.status = Shard_state::Status::done; // more shards than tasks
    }

    // Slot bookkeeping: which shard occupies a slot, whether the slot
    // has run anything yet (the steal/initial distinction), and when
    // the current child attached (busy_ns).
    std::vector<std::size_t> slot_shard(workers, no_slot);
    std::vector<char> slot_used(workers, 0);
    std::vector<clock::time_point> slot_attached(workers);

    // The continuous-merge reorder window: journal entries keyed by
    // global index, drained whenever the head of the window is the next
    // index to emit.  Dedup rule matches preload_from_entries: the
    // first occurrence of an index wins.
    std::map<std::size_t, Journal_entry> ready;
    std::size_t next_index = 0;
    std::size_t merged = 0;

    const auto poll_shard = [&](Shard_state& shard) {
        std::vector<Journal_entry> fresh = shard.tailer.poll();
        if (shard.tailer.have_header() && !shard.header_checked) {
            std::string why;
            if (!journal_compatible(shard.tailer.header(), grid, base_seed, total,
                                    shard.index, shard_count, &why))
                throw std::runtime_error{"run_coordinated: " + shard.tailer.path()
                                         + ": " + why};
            shard.header_checked = true;
        }
        bool advanced = false;
        for (Journal_entry& entry : fresh) {
            // Ignore rows that cannot belong to this shard (a foreign or
            // stale journal) and duplicates of rows already seen.
            if (entry.index >= total
                || entry.index % shard_count != shard.index - 1)
                continue;
            if (entry.index < next_index || ready.count(entry.index) != 0)
                continue;
            ready.emplace(entry.index, std::move(entry));
            ++shard.have;
            advanced = true;
            if (shard.slot != no_slot)
                ++stats.slots[shard.slot].tasks_journaled;
        }
        if (advanced)
            shard.last_progress = clock::now();
    };

    const auto drain_merge = [&]() {
        for (auto it = ready.begin(); it != ready.end() && it->first == next_index;
             it = ready.erase(it), ++next_index) {
            Journal_entry& entry = it->second;
            Task_result result;
            result.task = all_tasks[entry.index];
            result.seed = entry.seed;
            result.status = entry.status;
            result.attempts = entry.attempts;
            result.error = std::move(entry.error);
            result.result = std::move(entry.result);
            result.resumed = true;
            if (result.status == Task_status::ok)
                ++outcome.tally.ok;
            else if (result.status == Task_status::error)
                ++outcome.tally.errors;
            ++merged;
            if (config.on_result)
                config.on_result(result);
            if (config.collect_results)
                outcome.results.push_back(std::move(result));
            if (config.on_progress)
                config.on_progress(merged, total);
        }
    };

    const auto detach_slot = [&](Shard_state& shard) {
        const std::size_t slot = shard.slot;
        stats.slots[slot].busy_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now()
                                                                 - slot_attached[slot])
                .count());
        slot_shard[slot] = no_slot;
        shard.slot = no_slot;
        shard.child = util::Subprocess{};
    };

    /// The child is reaped; drain its journal one last time and decide:
    /// complete -> done, incomplete -> failed attempt (reassign or give
    /// up).  A worker that hung AFTER finishing its shard still counts
    /// as done — journal completeness, not exit status, is the verdict.
    const auto settle_exit = [&](Shard_state& shard) {
        poll_shard(shard);
        const std::size_t slot = shard.slot;
        if (shard.have == shard.task_count) {
            shard.status = Shard_state::Status::done;
            ++stats.slots[slot].shards_completed;
        } else {
            ++stats.worker_failures;
            ++stats.slots[slot].failures;
            shard.status = shard.attempts >= config.max_shard_attempts
                               ? Shard_state::Status::failed
                               : Shard_state::Status::pending;
        }
        detach_slot(shard);
    };

    bool cancelled = false;
    while (true) {
        if (config.cancel != nullptr
            && config.cancel->load(std::memory_order_relaxed)) {
            cancelled = true;
            break;
        }

        // ---- supervise: poll journals, reap exits, kill stalls -------
        for (Shard_state& shard : shards) {
            if (shard.status == Shard_state::Status::running) {
                poll_shard(shard);
                if (shard.child.try_wait()) {
                    settle_exit(shard);
                } else if (clock::now() - shard.last_progress
                           > config.heartbeat_timeout) {
                    // Stalled: no watermark movement within the
                    // heartbeat window.  SIGKILL (a stuck process may
                    // ignore anything gentler) and reassign.
                    shard.child.kill(SIGKILL);
                    shard.child.wait();
                    ++stats.watchdog_kills;
                    ++stats.slots[shard.slot].watchdog_kills;
                    settle_exit(shard);
                }
            } else if (shard.status == Shard_state::Status::pending) {
                // Pre-existing journals (a coordinator restarted over
                // its work_dir) contribute rows before any launch; a
                // shard they already complete never launches at all.
                poll_shard(shard);
                if (shard.have == shard.task_count)
                    shard.status = Shard_state::Status::done;
            }
        }

        // ---- dispatch: idle slots pull pending shards in order -------
        for (Shard_state& shard : shards) {
            if (shard.status != Shard_state::Status::pending)
                continue;
            std::size_t slot = no_slot;
            for (std::size_t s = 0; s < workers; ++s) {
                if (slot_shard[s] == no_slot) {
                    slot = s;
                    break;
                }
            }
            if (slot == no_slot)
                break; // every worker is busy

            Worker_request request;
            request.shard_index = shard.index;
            request.shard_count = shard_count;
            request.journal_path = shard.tailer.path();
            request.resume = shard.tailer.have_header();
            request.attempt = shard.attempts + 1;
            request.slot = slot;

            shard.child = config.launcher(request);
            ++shard.attempts;
            shard.status = Shard_state::Status::running;
            shard.slot = slot;
            shard.last_progress = clock::now();
            slot_shard[slot] = shard.index;
            slot_attached[slot] = shard.last_progress;
            ++stats.launches;
            ++stats.slots[slot].launches;
            if (shard.attempts > 1)
                ++stats.reassignments;
            else if (slot_used[slot])
                ++stats.steals; // an idle worker picking up extra work
            slot_used[slot] = 1;
        }

        drain_merge();

        bool active = false;
        for (const Shard_state& shard : shards)
            if (shard.status == Shard_state::Status::pending
                || shard.status == Shard_state::Status::running)
                active = true;
        if (!active)
            break;

        std::this_thread::sleep_for(config.poll_interval);
    }

    if (cancelled) {
        // Graceful teardown: SIGTERM lets workers drain in-flight tasks
        // and flush their journals (the anc_sweep signal contract), then
        // SIGKILL whatever ignores the grace window.
        for (Shard_state& shard : shards)
            if (shard.status == Shard_state::Status::running)
                shard.child.kill(SIGTERM);
        for (Shard_state& shard : shards) {
            if (shard.status != Shard_state::Status::running)
                continue;
            if (!shard.child.wait_for(std::chrono::milliseconds{2000})) {
                shard.child.kill(SIGKILL);
                shard.child.wait();
            }
            // Pick up everything the drain flushed, then release the
            // slot without judging the shard — a cancelled run is
            // incomplete by design, not failed.
            poll_shard(shard);
            if (shard.have == shard.task_count)
                shard.status = Shard_state::Status::done;
            else
                shard.status = Shard_state::Status::pending;
            detach_slot(shard);
        }
        drain_merge();
    }

    for (const Shard_state& shard : shards) {
        if (shard.status == Shard_state::Status::failed)
            ++outcome.failed_shards;
        stats.dropped_lines += shard.tailer.dropped_lines();
    }
    outcome.completed = merged == total;
    outcome.cancelled = cancelled;
    outcome.tally.skipped = total - merged;
    outcome.tally.cancelled = cancelled;
    stats.merged_tasks = merged;
    stats.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start)
            .count());
    return outcome;
}

} // namespace anc::engine
