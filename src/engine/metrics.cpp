#include "engine/metrics.h"

#include <ostream>
#include <sstream>

#include "dsp/math_profile.h"
#include "engine/text.h"
#include "util/cpu_features.h"
#include "util/simd.h"

namespace anc::engine {

using text::fmt_u64;
using text::json_array;
using text::json_escape;

void write_metrics_json(std::ostream& out,
                        const Metrics_run_info& info,
                        const Sweep_grid& grid,
                        const obs::Sweep_telemetry& telemetry,
                        const std::vector<Task_result>& results)
{
    const Cpu_features& cpu = cpu_features();

    out << "{\"schema\":\"" << metrics_schema << "\"";

    // ---- run: who ran, on what, how wide ---------------------------
    out << ",\"run\":{\"driver\":\"" << json_escape(info.driver) << "\""
        << ",\"base_seed\":\"" << fmt_u64(info.base_seed) << "\""
        << ",\"threads\":" << telemetry.threads << ",\"tasks\":" << telemetry.tasks
        << ",\"wall_ns\":" << fmt_u64(telemetry.wall_ns)
        << ",\"cpu\":{\"avx\":" << (cpu.avx ? "true" : "false")
        << ",\"avx2\":" << (cpu.avx2 ? "true" : "false")
        << ",\"fma\":" << (cpu.fma ? "true" : "false")
        << ",\"avx512f\":" << (cpu.avx512f ? "true" : "false") << "}"
        << ",\"simd_backend\":\"" << anc::simd::to_string(anc::simd::active_backend())
        << "\",\"simd_kernels_active\":"
        << (anc::simd::kernels_active() ? "true" : "false") << "}";

    // ---- grid echo --------------------------------------------------
    // The same canonical serialization the journal fingerprints
    // (engine/sweep.h grid_to_json), so a manifest's grid echo and a
    // journal's grid hash are cross-checkable.
    out << ",\"grid\":" << grid_to_json(grid);

    // ---- per-stage timing rollup ------------------------------------
    out << ",\"stages\":{";
    bool first = true;
    for (std::size_t i = 0; i < obs::stage_count; ++i) {
        out << (first ? "" : ",") << "\"" << obs::to_string(static_cast<obs::Stage>(i))
            << "\":{\"ns\":" << fmt_u64(telemetry.stages.ns[i])
            << ",\"calls\":" << fmt_u64(telemetry.stages.calls[i]) << "}";
        first = false;
    }
    out << "}";

    // ---- event-counter aggregates ----------------------------------
    out << ",\"counters\":{";
    first = true;
    for (std::size_t i = 0; i < obs::counter_count; ++i) {
        out << (first ? "" : ",") << "\""
            << obs::to_string(static_cast<obs::Counter>(i))
            << "\":" << fmt_u64(telemetry.counters.values[i]);
        first = false;
    }
    out << "}";

    // ---- task-latency histogram (nonzero bins only) -----------------
    out << ",\"latency_histogram\":{\"total\":" << fmt_u64(telemetry.latency.total())
        << ",\"bins\":[";
    first = true;
    for (std::size_t bin = 0; bin < obs::Latency_histogram::bin_count; ++bin) {
        if (telemetry.latency.counts[bin] == 0)
            continue;
        out << (first ? "" : ",") << "{\"floor_ns\":"
            << fmt_u64(obs::Latency_histogram::bin_floor_ns(bin))
            << ",\"count\":" << fmt_u64(telemetry.latency.counts[bin]) << "}";
        first = false;
    }
    out << "]}";

    // ---- per-worker utilization ------------------------------------
    out << ",\"workers\":";
    json_array(out, telemetry.workers, [&](const obs::Worker_stats& worker) {
        out << "{\"busy_ns\":" << fmt_u64(worker.busy_ns)
            << ",\"tasks\":" << fmt_u64(worker.tasks) << "}";
    });

    // ---- per-task journal rows --------------------------------------
    // The substrate for the ROADMAP's streaming/checkpointed sweeps: one
    // row per task, in task-index order, enough to replay or resume.
    out << ",\"tasks\":";
    json_array(out, results, [&](const Task_result& result) {
        const obs::Task_telemetry& task = result.result.telemetry;
        out << "{\"index\":" << result.task.index << ",\"seed\":\""
            << fmt_u64(result.seed) << "\",\"worker\":" << task.worker
            << ",\"wall_ns\":" << fmt_u64(task.wall_ns)
            << ",\"queue_ns\":" << fmt_u64(task.queue_ns) << "}";
    });
    out << "}";
}

std::string metrics_to_json(const Metrics_run_info& info,
                            const Sweep_grid& grid,
                            const obs::Sweep_telemetry& telemetry,
                            const std::vector<Task_result>& results)
{
    std::ostringstream out;
    write_metrics_json(out, info, grid, telemetry, results);
    return out.str();
}

} // namespace anc::engine
