// The run manifest: `anc.metrics.v1` — where telemetry leaves the
// process.
//
// The sweep emitters (engine/emit.h) answer "what did the experiment
// measure"; this layer answers "what did the run *do*": which machine
// and backend executed it, how the work spread over workers, where the
// wall-clock went per pipeline stage, and what the receivers observed
// (detector triggers, CRC verdicts, FEC corrections, ...).  It is a
// separate document on purpose — sweep JSON/CSV stay byte-identical
// whether or not telemetry was collected, so goldens never depend on
// timing.
//
// `--metrics-json PATH` on `bench/anc_sweep` and on the figure and
// ablation drivers emits it (OBSERVABILITY.md documents the schema).
//
// Counter aggregates and per-task rows are deterministic in
// (grid, base_seed); every *_ns field is a wall-clock observation and
// varies run to run.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/sweep.h"
#include "util/obs.h"

namespace anc::engine {

inline constexpr const char* metrics_schema = "anc.metrics.v1";

/// Caller-supplied context the manifest echoes back.
struct Metrics_run_info {
    /// Which front produced the run ("anc_sweep", "fig09_alice_bob", ...).
    std::string driver;
    std::uint64_t base_seed = 1;
};

/// Write the full `anc.metrics.v1` document: run info (threads, wall
/// time, CPU features, SIMD backend), grid echo, per-stage timing
/// rollups, merged event counters, the task-latency histogram,
/// per-worker utilization, and one journal row per task.
void write_metrics_json(std::ostream& out,
                        const Metrics_run_info& info,
                        const Sweep_grid& grid,
                        const obs::Sweep_telemetry& telemetry,
                        const std::vector<Task_result>& results);

} // namespace anc::engine
