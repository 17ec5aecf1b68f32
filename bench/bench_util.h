// Shared flag parsing and output helpers for the figure and ablation
// drivers.
//
// Each figure driver prints the rows/series the paper's figure reports,
// a small CDF table, and paper-vs-measured lines: print_compare over an
// entry of paper_values.h, which the ctest integration.paper_fidelity
// checks.

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/math_profile.h"
#include "engine/engine.h"
#include "paper_values.h"
#include "sweep_cli.h"
#include "util/stats.h"

namespace anc::bench {

/// The flags of a figure or ablation driver: a subset of anc_sweep's,
/// parsed by the same helpers.  A driver passes its defaults; a count
/// default of 0 means the driver has no such axis, and its flag is then
/// a usage error.
struct Driver_options {
    std::size_t repetitions = 0; ///< --repetitions: runs per point
    std::size_t exchanges = 0;   ///< --exchanges: packet pairs (or packets) per run
    std::size_t threads = 0;     ///< --threads: 0 = hardware concurrency
    /// --math-profile: multi-profile values emit profile-tagged rows for
    /// each; the axis is seed-collapsed, so the tuples share channel
    /// realizations.
    std::vector<dsp::Math_profile> math_profiles{dsp::Math_profile::exact};
    Artifact_paths artifacts{}; ///< --json and --metrics-json
    std::string driver{};       ///< program name, echoed by the manifest

    engine::Executor_config executor(std::uint64_t base_seed = 1) const
    {
        engine::Executor_config config;
        config.threads = threads;
        config.base_seed = base_seed;
        return config;
    }
};

/// Parse a driver's argv over `options` (its defaults).  --help prints
/// the usage and exits 0; a malformed value, a repeated profile, an
/// unknown flag or a count the driver has no axis for prints an
/// `error:` line and the usage, and exits 2.
inline Driver_options parse_driver_flags(int argc, char** argv, Driver_options options)
{
    const std::string program = argc > 0 ? argv[0] : "";
    options.driver = program.substr(program.find_last_of('/') + 1);
    const auto usage = [&](const std::string& error) {
        if (!error.empty())
            std::fprintf(stderr, "error: %s\n\n", error.c_str());
        std::fprintf(stderr, "usage: %s [options]\n", options.driver.c_str());
        if (options.repetitions > 0)
            std::fprintf(stderr, "  --repetitions N      runs per point (default %zu)\n",
                         options.repetitions);
        if (options.exchanges > 0)
            std::fprintf(stderr, "  --exchanges N        packet pairs per run (default %zu)\n",
                         options.exchanges);
        std::fprintf(stderr,
                     "  --threads N          worker threads (0 = hardware concurrency)\n"
                     "  --math-profile LIST  exact|fast (simd = fast), or both (default exact)\n"
                     "  --json PATH          write the full anc.sweep.v4 JSON document\n"
                     "  --metrics-json PATH  collect telemetry, write the anc.metrics.v1\n"
                     "                       run manifest\n");
        std::exit(error.empty() ? 0 : 2);
    };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument{arg + " needs a value"};
                return argv[++i];
            };
            const auto count = [&](std::size_t& target) {
                if (target == 0)
                    throw std::invalid_argument{options.driver + " has no " + arg
                                                + " axis"};
                const std::string text = value();
                target = parse_count(arg, text);
                if (target == 0)
                    throw std::invalid_argument{arg + " wants a whole number >= 1, got: '"
                                                + text + "'"};
            };
            if (arg == "--help" || arg == "-h")
                usage("");
            else if (arg == "--repetitions")
                count(options.repetitions);
            else if (arg == "--exchanges")
                count(options.exchanges);
            else if (arg == "--threads")
                options.threads = parse_count(arg, value());
            else if (arg == "--math-profile")
                options.math_profiles = dsp::math_profiles_from_string(value());
            else if (arg == "--json")
                options.artifacts.json = value();
            else if (arg == "--metrics-json")
                options.artifacts.metrics_json = value();
            else
                throw std::invalid_argument{"unknown argument " + arg};
        }
        const auto& profiles = options.math_profiles;
        for (auto it = profiles.begin(); it != profiles.end(); ++it)
            if (std::find(profiles.begin(), it, *it) != it)
                throw std::invalid_argument{"--math-profile repeats a profile"};
    } catch (const std::exception& error) {
        usage(error.what());
    }
    return options;
}

/// Run `grid` against `registry`, collecting telemetry when
/// --metrics-json asks for it, and publish the --json and --metrics-json
/// artifacts.  An artifact that cannot be written prints an `error:`
/// line and exits 2, as anc_sweep does; the atomic publish leaves no
/// temp file behind.
inline engine::Sweep_outcome
run_and_publish(const Driver_options& options, const engine::Sweep_grid& grid,
                const engine::Executor_config& config,
                const engine::Scenario_registry& registry =
                    engine::Scenario_registry::builtin())
{
    obs::Sweep_telemetry telemetry;
    engine::Executor_config run_config = config;
    if (!options.artifacts.metrics_json.empty())
        run_config.telemetry = &telemetry;
    engine::Sweep_outcome outcome = engine::run_grid(grid, registry, run_config);
    try {
        emit_artifacts(options.artifacts, outcome.tasks, outcome.points);
        emit_metrics(options.artifacts,
                     {.driver = options.driver, .base_seed = config.base_seed}, grid,
                     telemetry, outcome.tasks);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(2);
    }
    return outcome;
}

/// The summaries restricted to one math profile.  The figure drivers'
/// tables assume a single point per (scenario, scheme); under
/// --math-profile both they print the *leading* profile's points while
/// the emitted JSON still carries every profile-tagged row.
inline std::vector<engine::Point_summary>
points_for_profile(const std::vector<engine::Point_summary>& points,
                   dsp::Math_profile profile)
{
    std::vector<engine::Point_summary> out;
    for (const engine::Point_summary& point : points)
        if (point.key.math_profile == profile)
            out.push_back(point);
    return out;
}

/// One line describing how the engine ran a sweep, so bench output
/// records the parallelism it used (results are identical either way).
inline void print_engine_note(std::size_t tasks, const engine::Executor_config& config)
{
    // Mirror the executor's cap: it never spawns more workers than tasks.
    const std::size_t threads =
        std::min(engine::resolve_thread_count(config), std::max<std::size_t>(tasks, 1));
    std::printf("[engine: %zu tasks on %zu threads, base seed %llu]\n", tasks, threads,
                static_cast<unsigned long long>(config.base_seed));
}

inline void print_cdf(const std::string& title, const Cdf& cdf, const char* unit = "")
{
    if (cdf.empty()) {
        std::printf("%s: (no samples)\n", title.c_str());
        return;
    }
    std::printf("%s  (n=%zu, mean=%.4f%s)\n", title.c_str(), cdf.count(), cdf.mean(), unit);
    std::printf("  %-12s %s\n", "fraction", "value");
    for (const double q : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 1.00})
        std::printf("  %-12.2f %.4f\n", q, cdf.quantile(q));
}

inline void print_header(const char* figure, const char* description)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure, description);
    std::printf("==============================================================\n");
}

/// A measured number for print_compare: the statistic it is, and no
/// value when the series behind it held no sample.
struct Measured {
    const char* statistic;
    std::optional<double> value;
};

inline Measured mean_of(const Cdf& series, const char* statistic = "mean")
{
    return {statistic, series.empty() ? std::nullopt : std::optional{series.mean()}};
}

inline Measured p90_of(const Cdf& series)
{
    return {"p90", series.empty() ? std::nullopt : std::optional{series.quantile(0.90)}};
}

/// The one paper-vs-measured line:
///   <label>, <statistic>  paper P <+-W|max>  measured M  profiles within A  source: S
/// with "n/a" for a measurement that has no value, and the entry's
/// known-gap note appended when it has one.  tests/integration/
/// paper_fidelity_test.sh parses exactly this layout.
inline void print_compare(const Paper_value& entry, const Measured& measured)
{
    const std::string label = std::string{entry.label} + ", " + measured.statistic;
    char corridor[16] = "max";
    if (!entry.corridor.at_most)
        std::snprintf(corridor, sizeof corridor, "+-%.3f", entry.corridor.half_width);
    char value[32] = "n/a";
    if (measured.value)
        std::snprintf(value, sizeof value, "%.3f", *measured.value);
    std::printf("  %-58s paper %.3f %-7s measured %-6s profiles within %.3f  source: %s",
                label.c_str(), entry.paper, corridor, value, entry.profiles_within,
                entry.source);
    if (entry.known_gap)
        std::printf("  known gap: %s", entry.known_gap);
    std::printf("\n");
}

} // namespace anc::bench
