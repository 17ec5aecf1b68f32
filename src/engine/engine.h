// Umbrella header and one-call driver for the parallel experiment
// engine.  See ENGINE.md for the full subsystem tour.
//
//   Sweep_grid grid;
//   grid.scenarios = {"alice_bob"};
//   grid.snr_db = {22.0};
//   grid.repetitions = 40;
//   const Sweep_outcome outcome =
//       run_grid(grid, Scenario_registry::builtin(), {.base_seed = 1000});
//   // outcome.tasks    — one Task_result per (point, repetition)
//   // outcome.points   — aggregated per grid point
//
// run_grid writes no files; the emitters (engine/emit.h,
// engine/metrics.h) are the caller's to invoke.

#pragma once

#include "engine/emit.h"
#include "engine/executor.h"
#include "engine/metrics.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "engine/sweep.h"

namespace anc::engine {

struct Sweep_outcome {
    std::vector<Task_result> tasks;
    std::vector<Point_summary> points;
};

/// Expand the grid against `registry`, run it on the thread pool, and
/// aggregate.  The workhorse of the bench/ drivers.
Sweep_outcome run_grid(const Sweep_grid& grid, const Scenario_registry& registry,
                       const Executor_config& config);

} // namespace anc::engine
