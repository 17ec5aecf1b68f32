// Set-up probe: wraps anc_sweep's single call into the executor
// (engine::run_sweep over an expanded task list) and records when it was
// entered and when it returned, on CLOCK_MONOTONIC — the clock Python's
// time.monotonic_ns() reads, so run.py can subtract its own spawn time.
// Everything before the entry is set-up (registry, grid expansion,
// journal open, backend resolution); everything after it is the sweep.
//
// The timestamps are written at process exit to the file named by the
// SWEEPBENCH_PROBE environment variable, as "<entry_ns> <exit_ns>\n".

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "engine/executor.h"

namespace sweepbench {

std::uint64_t monotonic_ns()
{
    timespec now{};
    clock_gettime(CLOCK_MONOTONIC, &now);
    return static_cast<std::uint64_t>(now.tv_sec) * 1'000'000'000u
           + static_cast<std::uint64_t>(now.tv_nsec);
}

std::uint64_t sweep_entry_ns = 0;
std::uint64_t sweep_exit_ns = 0;

} // namespace sweepbench

using anc::engine::Executor_config;
using anc::engine::Run_tally;
using anc::engine::Scenario_registry;
using anc::engine::Sweep_task;
using anc::engine::Task_result;

extern "C" {

std::vector<Task_result>
__real__ZN3anc6engine9run_sweepERKSt6vectorINS0_10Sweep_taskESaIS2_EERKNS0_17Scenario_registryERKNS0_15Executor_configEPNS0_9Run_tallyE(
    const std::vector<Sweep_task>&, const Scenario_registry&, const Executor_config&,
    Run_tally*);

std::vector<Task_result>
__wrap__ZN3anc6engine9run_sweepERKSt6vectorINS0_10Sweep_taskESaIS2_EERKNS0_17Scenario_registryERKNS0_15Executor_configEPNS0_9Run_tallyE(
    const std::vector<Sweep_task>& tasks, const Scenario_registry& registry,
    const Executor_config& config, Run_tally* tally)
{
    sweepbench::sweep_entry_ns = sweepbench::monotonic_ns();
    std::vector<Task_result> results =
        __real__ZN3anc6engine9run_sweepERKSt6vectorINS0_10Sweep_taskESaIS2_EERKNS0_17Scenario_registryERKNS0_15Executor_configEPNS0_9Run_tallyE(
            tasks, registry, config, tally);
    sweepbench::sweep_exit_ns = sweepbench::monotonic_ns();
    return results;
}

} // extern "C"

namespace {

__attribute__((destructor)) void write_probe()
{
    const char* path = std::getenv("SWEEPBENCH_PROBE");
    if (path == nullptr || sweepbench::sweep_entry_ns == 0)
        return;
    if (std::FILE* out = std::fopen(path, "w")) {
        std::fprintf(out, "%llu %llu\n",
                     static_cast<unsigned long long>(sweepbench::sweep_entry_ns),
                     static_cast<unsigned long long>(sweepbench::sweep_exit_ns));
        std::fclose(out);
    }
}

} // namespace
