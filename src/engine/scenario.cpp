#include "engine/scenario.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace anc::engine {

Scenario::Scenario(std::string name, std::vector<std::string> schemes, Run_fn run)
    : name_{std::move(name)}, schemes_{std::move(schemes)}, run_{std::move(run)}
{
    if (!run_)
        throw std::invalid_argument{"Scenario '" + name_ + "' has no run function"};
    if (schemes_.empty())
        throw std::invalid_argument{"Scenario '" + name_ + "' declares no schemes"};
}

bool Scenario::supports_scheme(std::string_view scheme) const
{
    return std::find(schemes_.begin(), schemes_.end(), scheme) != schemes_.end();
}

Scenario_result Scenario::run(const Scenario_config& config, std::uint64_t seed) const
{
    if (!supports_scheme(config.scheme))
        throw std::invalid_argument{"Scenario '" + name_ + "' has no scheme '"
                                    + config.scheme + "'"};
    return run_(config, seed);
}

void Scenario_registry::add(Scenario scenario)
{
    if (find(scenario.name()) != nullptr)
        throw std::invalid_argument{"Scenario_registry::add: duplicate scenario '"
                                    + scenario.name() + "'"};
    scenarios_.push_back(std::move(scenario));
}

const Scenario* Scenario_registry::find(std::string_view name) const
{
    for (const Scenario& scenario : scenarios_) {
        if (scenario.name() == name)
            return &scenario;
    }
    return nullptr;
}

const Scenario& Scenario_registry::at(std::string_view name) const
{
    if (const Scenario* scenario = find(name))
        return *scenario;
    throw std::out_of_range{"Scenario_registry::at: no scenario '" + std::string{name}
                            + "'"};
}

std::vector<std::string> Scenario_registry::names() const
{
    std::vector<std::string> out;
    out.reserve(scenarios_.size());
    for (const Scenario& scenario : scenarios_)
        out.push_back(scenario.name());
    return out;
}

const Scenario_registry& Scenario_registry::builtin()
{
    static const Scenario_registry registry = [] {
        Scenario_registry r;
        register_builtin_scenarios(r);
        return r;
    }();
    return registry;
}

} // namespace anc::engine
