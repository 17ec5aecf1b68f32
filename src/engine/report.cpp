#include "engine/report.h"

#include <map>
#include <stdexcept>

namespace anc::engine {

Point_key key_of(const Sweep_task& task)
{
    return {task.config, task.scenario};
}

void Aggregator::add(const Task_result& result)
{
    if (result.status == Task_status::skipped)
        return; // a drained (cancelled) slot: no run happened at all
    const Point_key key = key_of(result.task);
    const auto [entry, inserted] = index_.try_emplace(key, summaries_.size());
    if (inserted) {
        summaries_.emplace_back();
        summaries_.back().key = key;
    }
    Point_summary* summary = &summaries_[entry->second];
    if (result.status == Task_status::error) {
        ++summary->errors; // an isolated fault contributes no samples
        return;
    }

    const sim::Run_metrics& metrics = result.result.metrics;
    ++summary->runs;
    summary->throughput.add(metrics.throughput());
    summary->raw_throughput.add(metrics.raw_throughput());
    summary->delivery_rate.add(metrics.delivery_rate());
    summary->run_mean_ber.add(metrics.mean_ber());
    summary->run_mean_overlap.add(metrics.mean_overlap());
    summary->totals.merge(metrics);
    for (const auto& [name, cdf] : result.result.series)
        summary->series[name].add_all(cdf.sorted_samples());
    for (const auto& [name, value] : result.result.scalars)
        summary->scalars[name] += value;
}

std::vector<Point_summary> aggregate(const std::vector<Task_result>& results)
{
    Aggregator aggregator;
    for (const Task_result& result : results)
        aggregator.add(result);
    return aggregator.take();
}

const Point_summary& summary_for(const std::vector<Point_summary>& summaries,
                                 const std::string& scenario, const std::string& scheme)
{
    const Point_summary* found = nullptr;
    for (const Point_summary& summary : summaries) {
        if (summary.key.scenario == scenario && summary.key.scheme == scheme) {
            if (found != nullptr)
                throw std::invalid_argument{
                    "summary_for: multiple grid points match " + scenario + "/" + scheme};
            found = &summary;
        }
    }
    if (found == nullptr)
        throw std::out_of_range{"summary_for: no grid point " + scenario + "/" + scheme};
    return *found;
}

Cdf paired_gain(const std::vector<Task_result>& results, const Point_key& scheme_key,
                const Point_key& baseline_key, Baseline_policy policy)
{
    // Per-repetition throughput, indexed by repetition.  Tasks from
    // `expand` list repetitions in order, but pairing by the explicit
    // repetition field keeps this correct for any task ordering.
    std::map<std::size_t, double> scheme_runs;
    std::map<std::size_t, double> baseline_runs;
    for (const Task_result& result : results) {
        const Point_key key = key_of(result.task);
        if (key == scheme_key)
            scheme_runs[result.task.repetition] = result.result.metrics.throughput();
        else if (key == baseline_key)
            baseline_runs[result.task.repetition] = result.result.metrics.throughput();
    }
    if (scheme_runs.size() != baseline_runs.size())
        throw std::invalid_argument{"paired_gain: run counts differ between points"};

    Cdf gains;
    for (const auto& [repetition, throughput] : scheme_runs) {
        const auto baseline = baseline_runs.find(repetition);
        if (baseline == baseline_runs.end())
            throw std::invalid_argument{"paired_gain: repetition sets differ"};
        if (baseline->second <= 0.0) {
            if (policy == Baseline_policy::strict)
                throw std::domain_error{"paired_gain: baseline throughput is zero"};
            continue;
        }
        gains.add(throughput / baseline->second);
    }
    return gains;
}

Cdf paired_gain(const std::vector<Task_result>& results,
                const std::vector<Point_summary>& summaries,
                const std::string& scenario, const std::string& scheme,
                const std::string& baseline_scheme, Baseline_policy policy)
{
    const Point_key scheme_key = summary_for(summaries, scenario, scheme).key;
    Point_key baseline_key = scheme_key;
    baseline_key.scheme = baseline_scheme;
    return paired_gain(results, scheme_key, baseline_key, policy);
}

} // namespace anc::engine
