#include "engine/sweep.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "engine/text.h"

namespace anc::engine {

namespace {

/// Every axis must be non-empty (unless `may_be_empty`) and name each
/// value once: a repeated value would expand into duplicate tasks that
/// share one seed_index — the same channel realization counted as
/// independent runs of one point.
template <typename T>
void require_axis(const std::vector<T>& values, const char* axis, bool may_be_empty = false)
{
    if (values.empty() && !may_be_empty)
        throw std::invalid_argument{std::string{"Sweep_grid: empty axis '"} + axis
                                    + "'"};
    for (auto it = values.begin(); it != values.end(); ++it)
        if (std::find(values.begin(), it, *it) != it)
            throw std::invalid_argument{std::string{"Sweep_grid: axis '"} + axis
                                        + "' repeats a value"};
}

/// The schemes this scenario contributes to the grid, in the scenario's
/// canonical order.
std::vector<std::string> schemes_for(const Scenario& scenario, const Sweep_grid& grid)
{
    if (grid.schemes.empty())
        return scenario.schemes();
    std::vector<std::string> out;
    for (const std::string& scheme : scenario.schemes()) {
        if (std::find(grid.schemes.begin(), grid.schemes.end(), scheme)
            != grid.schemes.end())
            out.push_back(scheme);
    }
    return out;
}

/// The cartesian product of every non-scenario, non-scheme, non-repetition
/// axis, in the documented axis order (snr > alice > bob > payload >
/// exchanges > detector_threshold > interleave_rows > coherence_block >
/// mean_link_gain).  Scheme is left at its default; the caller stamps it.
std::vector<Scenario_config> point_configs(const Sweep_grid& grid)
{
    std::vector<Scenario_config> points;
    for (const double snr_db : grid.snr_db)
        for (const double alice_amplitude : grid.alice_amplitudes)
            for (const double bob_amplitude : grid.bob_amplitudes)
                for (const std::size_t payload_bits : grid.payload_bits)
                    for (const std::size_t exchanges : grid.exchanges)
                        for (const double threshold_db : grid.detector_thresholds_db)
                            for (const std::size_t rows : grid.interleave_rows)
                                for (const std::size_t block : grid.coherence_blocks)
                                    for (const double link_gain : grid.mean_link_gains) {
                                        Scenario_config config;
                                        config.snr_db = snr_db;
                                        config.alice_amplitude = alice_amplitude;
                                        config.bob_amplitude = bob_amplitude;
                                        config.payload_bits = payload_bits;
                                        config.exchanges = exchanges;
                                        config.receiver.interference_detector
                                            .variance_threshold_db = threshold_db;
                                        config.fec_interleave_rows = rows;
                                        config.coherence_block = block;
                                        config.mean_link_gain = link_gain;
                                        points.push_back(std::move(config));
                                    }
    return points;
}

} // namespace

std::vector<Sweep_task> expand(const Sweep_grid& grid, const Scenario_registry& registry)
{
    require_axis(grid.scenarios, "scenarios");
    require_axis(grid.schemes, "schemes", true);
    require_axis(grid.snr_db, "snr_db");
    require_axis(grid.alice_amplitudes, "alice_amplitudes");
    require_axis(grid.bob_amplitudes, "bob_amplitudes");
    require_axis(grid.payload_bits, "payload_bits");
    require_axis(grid.exchanges, "exchanges");
    require_axis(grid.detector_thresholds_db, "detector_thresholds_db");
    require_axis(grid.interleave_rows, "interleave_rows");
    require_axis(grid.coherence_blocks, "coherence_blocks");
    require_axis(grid.mean_link_gains, "mean_link_gains");
    require_axis(grid.math_profiles, "math_profiles");
    if (grid.repetitions == 0)
        throw std::invalid_argument{"Sweep_grid: empty axis 'repetitions'"};

    // Every requested scheme must be meaningful somewhere in the grid.
    std::set<std::string> unmatched{grid.schemes.begin(), grid.schemes.end()};

    const std::vector<Scenario_config> points = point_configs(grid);

    std::vector<Sweep_task> tasks;
    std::size_t scenario_seed_base = 0;
    for (const std::string& scenario_name : grid.scenarios) {
        const Scenario& scenario = registry.at(scenario_name);
        const std::vector<std::string> schemes = schemes_for(scenario, grid);
        for (const std::string& scheme : schemes)
            unmatched.erase(scheme);
        std::size_t scheme_block = 0; // tasks per (scheme, profile) block
        for (const std::string& scheme : schemes) {
            // The math-profile axis is seed-collapsed exactly like the
            // scheme axis: the offset restarts per profile, so tasks
            // that differ only in scheme and/or profile share a
            // seed_index (paired channel realizations).
            for (const dsp::Math_profile profile : grid.math_profiles) {
                std::size_t offset = 0; // position within the collapsed block
                for (const Scenario_config& point : points) {
                    for (std::size_t rep = 0; rep < grid.repetitions; ++rep) {
                        Sweep_task task;
                        task.index = tasks.size();
                        task.seed_index = scenario_seed_base + offset++;
                        task.scenario = scenario_name;
                        task.config = point;
                        task.config.scheme = scheme;
                        task.config.math_profile = profile;
                        task.repetition = rep;
                        tasks.push_back(std::move(task));
                    }
                }
                scheme_block = offset;
            }
        }
        scenario_seed_base += scheme_block;
    }

    if (!unmatched.empty())
        throw std::invalid_argument{"Sweep_grid: scheme '" + *unmatched.begin()
                                    + "' is supported by no scenario in the grid"};
    return tasks;
}

std::vector<Sweep_task> shard_tasks(const std::vector<Sweep_task>& tasks,
                                    std::size_t shard_index, std::size_t shard_count)
{
    if (shard_count == 0 || shard_index == 0 || shard_index > shard_count)
        throw std::invalid_argument{"shard_tasks: shard must satisfy 1 <= k <= n"};
    std::vector<Sweep_task> shard;
    shard.reserve(tasks.size() / shard_count + 1);
    for (std::size_t i = shard_index - 1; i < tasks.size(); i += shard_count)
        shard.push_back(tasks[i]);
    return shard;
}

namespace {

using text::fmt_double;
using text::json_array;

void json_string_axis(std::ostream& out, const std::vector<std::string>& values)
{
    json_array(out, values, [&](const std::string& s) {
        out << '"';
        // Scenario/scheme names are identifiers; escape the two JSON
        // metacharacters anyway so a hostile name cannot break the
        // document (or the fingerprint).
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out << '\\';
            out << c;
        }
        out << '"';
    });
}

} // namespace

std::string grid_to_json(const Sweep_grid& grid)
{
    std::ostringstream out;
    out << "{\"scenarios\":";
    json_string_axis(out, grid.scenarios);
    out << ",\"schemes\":";
    json_string_axis(out, grid.schemes);
    out << ",\"math_profiles\":";
    json_array(out, grid.math_profiles, [&](const dsp::Math_profile profile) {
        out << "\"" << dsp::to_string(profile) << "\"";
    });
    out << ",\"snr_db\":";
    json_array(out, grid.snr_db, [&](const double v) { out << fmt_double(v); });
    out << ",\"alice_amplitudes\":";
    json_array(out, grid.alice_amplitudes, [&](const double v) { out << fmt_double(v); });
    out << ",\"bob_amplitudes\":";
    json_array(out, grid.bob_amplitudes, [&](const double v) { out << fmt_double(v); });
    out << ",\"payload_bits\":";
    json_array(out, grid.payload_bits, [&](const std::size_t v) { out << v; });
    out << ",\"exchanges\":";
    json_array(out, grid.exchanges, [&](const std::size_t v) { out << v; });
    out << ",\"detector_thresholds_db\":";
    json_array(out, grid.detector_thresholds_db,
               [&](const double v) { out << fmt_double(v); });
    out << ",\"interleave_rows\":";
    json_array(out, grid.interleave_rows, [&](const std::size_t v) { out << v; });
    out << ",\"coherence_blocks\":";
    json_array(out, grid.coherence_blocks, [&](const std::size_t v) { out << v; });
    out << ",\"mean_link_gains\":";
    json_array(out, grid.mean_link_gains, [&](const double v) { out << fmt_double(v); });
    out << ",\"repetitions\":" << grid.repetitions << "}";
    return out.str();
}

} // namespace anc::engine
