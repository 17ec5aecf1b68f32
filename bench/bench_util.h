// Shared output helpers for the figure-reproduction benches.
//
// Each bench prints the same rows/series the paper's figure reports, a
// small CDF table, and a paper-vs-measured summary line, so the outputs
// can be pasted straight into EXPERIMENTS.md.

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/math_profile.h"
#include "engine/engine.h"
#include "sweep_cli.h"
#include "util/stats.h"

namespace anc::bench {

/// Math profiles a sweep should run, from the ANC_MATH_PROFILE
/// environment variable: unset means exact; otherwise any list
/// dsp::math_profiles_from_string accepts ("fast", "both" = exact +
/// fast, "exact,fast", ...).  Multi-profile values emit profile-tagged
/// rows for each; the axis is seed-collapsed, so the tuples share
/// channel realizations.  Every engine-backed bench driver applies
/// this, which is how the CI profile-matrix jobs rerun the sweeps
/// without bespoke flags.  Unknown values throw.
inline std::vector<dsp::Math_profile> math_profiles_from_env()
{
    const char* env = std::getenv("ANC_MATH_PROFILE");
    if (env == nullptr)
        return {dsp::Math_profile::exact};
    return dsp::math_profiles_from_string(env);
}

/// The summaries restricted to one math profile.  The figure drivers'
/// tables assume a single point per (scenario, scheme); under
/// ANC_MATH_PROFILE=both they print the *leading* profile's points while
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

/// A count from environment variable `name`: unset or empty means
/// `fallback`; anything else must be one whole number >= 1, or this
/// throws std::invalid_argument naming the variable.
inline std::size_t count_from_env(const char* name, std::size_t fallback)
{
    const char* env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    const std::size_t count = parse_count(name, env);
    if (count == 0)
        throw std::invalid_argument{std::string{name} + " wants a whole number >= 1, got: '"
                                    + env + "'"};
    return count;
}

/// Number of runs (the paper repeats each experiment 40 times).  Scaled
/// down via the ANC_BENCH_RUNS environment variable for quick checks.
inline std::size_t run_count(std::size_t default_runs = 40)
{
    return count_from_env("ANC_BENCH_RUNS", default_runs);
}

/// Packet pairs (or packets) per run; the paper used 1000 per direction,
/// which is far more than needed for stable means in a deterministic
/// simulator.  Scaled via ANC_BENCH_EXCHANGES.
inline std::size_t exchange_count(std::size_t default_exchanges = 20)
{
    return count_from_env("ANC_BENCH_EXCHANGES", default_exchanges);
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

inline void print_compare(const char* metric, double paper, double measured)
{
    std::printf("  %-44s paper %-8.3f measured %-8.3f\n", metric, paper, measured);
}

} // namespace anc::bench
