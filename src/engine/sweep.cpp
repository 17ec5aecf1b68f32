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

/// The cartesian product of the numeric axes, the first varying
/// slowest.  Scheme is left at its default; the caller stamps it.
std::vector<Scenario_config> point_configs(const Sweep_grid& grid)
{
    std::vector<Scenario_config> points{Scenario_config{}};
    for_each_axis([&](const char*, const char*, auto values, auto field) {
        std::vector<Scenario_config> product;
        product.reserve(points.size() * (grid.*values).size());
        for (const Scenario_config& point : points) {
            for (const auto value : grid.*values) {
                product.push_back(point);
                product.back().*field = value;
            }
        }
        points = std::move(product);
    });
    return points;
}

} // namespace

std::vector<Sweep_task> expand(const Sweep_grid& grid, const Scenario_registry& registry)
{
    require_axis(grid.scenarios, "scenarios");
    require_axis(grid.schemes, "schemes", true);
    for_each_axis([&](const char*, const char* grid_name, auto values, auto) {
        require_axis(grid.*values, grid_name);
    });
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
    for_each_axis([&](const char*, const char* grid_name, auto values, auto) {
        out << ",\"" << grid_name << "\":";
        json_array(out, grid.*values, [&](const auto v) { text::write_value(out, v); });
    });
    out << ",\"repetitions\":" << grid.repetitions << "}";
    return out.str();
}

} // namespace anc::engine
