#include "engine/engine.h"

namespace anc::engine {

Sweep_outcome run_grid(const Sweep_grid& grid, const Scenario_registry& registry,
                       const Executor_config& config)
{
    Sweep_outcome outcome;
    outcome.tasks = run_sweep(expand(grid, registry), registry, config);
    outcome.points = aggregate(outcome.tasks);
    return outcome;
}

} // namespace anc::engine
