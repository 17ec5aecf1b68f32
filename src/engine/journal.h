// The completed-task journal: `anc.journal.v1` — crash-safe
// checkpointing for sweeps.
//
// An append-only, line-oriented text file.  Line 1 is the magic
// (`anc.journal.v1`); every following line is `<crc32-hex> <payload>`,
// where the CRC covers the payload bytes, the first payload is the
// header record (grid fingerprint, base seed, task count, shard k/n)
// and each subsequent payload is one completed task: its global index,
// derived seed, terminal status, attempt count, and the FULL
// Scenario_result (metrics, Cdf samples in insertion order, series,
// scalars) in exact round-trip text form — enough to reconstitute the
// Task_result without re-running, so a resumed sweep emits
// byte-identical JSON/CSV to an uninterrupted one.
//
// Durability model: each line is appended with a single write(2) on an
// O_APPEND descriptor (atomic at the line level), and fsync is batched
// through a Rate_limiter (plus always on close/flush).  A crash can
// therefore lose only the un-synced suffix and possibly tear the final
// line; the loader verifies every line's CRC and silently drops
// invalid ones — a dropped task is simply re-run on resume.
//
// Compatibility: resume and merge refuse a journal whose header
// fingerprint, base seed, task count, or shard spec does not match the
// current invocation — per-task seeds are pure functions of
// (base_seed, seed_index), so matching headers guarantee the replayed
// rows slot into the same grid.  ENGINE.md "Fault tolerance" documents
// the workflow.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/sweep.h"
#include "util/rate_limiter.h"

namespace anc::engine {

inline constexpr const char* journal_magic = "anc.journal.v1";

/// FNV-1a 64 over the canonical grid JSON (sweep.h grid_to_json) — the
/// compatibility stamp in every journal header.  Excludes base_seed,
/// which travels (and is checked) as its own header field.
std::uint64_t grid_fingerprint(const Sweep_grid& grid);

struct Journal_header {
    std::uint64_t grid_hash = 0;
    std::uint64_t base_seed = 1;
    /// Tasks in the FULL expanded grid (not the shard's subset).
    std::size_t tasks = 0;
    /// 1-based shard spec; 1/1 for an unsharded sweep.
    std::size_t shard_index = 1;
    std::size_t shard_count = 1;
};

struct Journal_entry {
    std::size_t index = 0; ///< Sweep_task::index (global)
    std::uint64_t seed = 0;
    Task_status status = Task_status::ok;
    std::uint32_t attempts = 1;
    std::string error;
    Scenario_result result;
};

/// What load_journal recovered.
struct Journal_contents {
    Journal_header header;
    /// Valid entries in file (= completion) order; duplicate indices
    /// keep the first occurrence.
    std::vector<Journal_entry> entries;
    /// Torn or corrupt lines skipped (CRC mismatch, parse failure).
    std::size_t dropped_lines = 0;
};

/// Append-only writer.  `truncate` starts a fresh journal (magic +
/// header); otherwise the file must already hold a compatible header —
/// the resume case, verified by the caller via load_journal — and new
/// entries are appended after the existing ones.  Throws
/// std::runtime_error on any I/O failure.
class Journal_writer {
public:
    Journal_writer(const std::string& path, const Journal_header& header,
                   bool truncate);
    ~Journal_writer(); ///< flushes (best-effort) and closes

    Journal_writer(const Journal_writer&) = delete;
    Journal_writer& operator=(const Journal_writer&) = delete;

    /// Serialize + CRC-stamp + append one completed task in a single
    /// write(2).  fsync is rate-limited (~20 ms batches); call flush()
    /// for a hard durability point.
    void append(const Task_result& result);

    /// fsync now, unconditionally (the SIGINT/SIGTERM drain point).
    void flush();

    std::size_t appended() const { return appended_; }

private:
    void write_line(const std::string& payload);

    int fd_ = -1;
    std::string path_;
    std::size_t appended_ = 0;
    /// Batches fsync to at most ~50/s: the durability lag a crash can
    /// lose is bounded by one window, and the sweep never serializes on
    /// storage latency per task.
    Rate_limiter fsync_gate_{std::chrono::milliseconds{20}};
};

/// Parse a journal file.  Throws std::runtime_error when the file
/// cannot be opened, the magic is wrong, or no valid header line
/// survives (a journal torn inside its header is unusable — but also
/// empty, so nothing is lost by starting over).  Torn/corrupt entry
/// lines are dropped and counted, never fatal.
Journal_contents load_journal(const std::string& path);

/// True when `header` matches the invocation described by the
/// arguments; `why` (when non-null) receives a one-line reason on
/// mismatch.
bool journal_compatible(const Journal_header& header, const Sweep_grid& grid,
                        std::uint64_t base_seed, std::size_t tasks,
                        std::size_t shard_index, std::size_t shard_count,
                        std::string* why = nullptr);

/// Reconstitute executor-preloadable results from journal entries:
/// keyed by POSITION in `tasks` (the vector about to be handed to
/// run_sweep — the full expansion, or a shard's subset), matching
/// entries to tasks by global Sweep_task::index.  Entries for indices
/// not present in `tasks` are ignored (another shard's rows).
std::map<std::size_t, Task_result>
preload_from_entries(std::vector<Journal_entry>&& entries,
                     const std::vector<Sweep_task>& tasks);

} // namespace anc::engine
