// Statistical corridor validation of the fast math profile.
//
// The fast profile is *not* byte-identical to exact — by design (see
// PERF.md "Math profiles").  What must hold instead: on grids where the
// profile axis is seed-collapsed (paired channel realizations), the
// fast rows' delivery rates and BERs stay inside tight statistical
// corridors around the exact rows, on the paper's own workloads
// (alice_bob, x_topology) and the fading extension — and the fast
// profile is itself fully deterministic, at any thread count.
//
// Everything here is deterministic in (grid, base_seed), so the
// corridors are calibrated once and can never flake.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "dsp/math_profile.h"
#include "engine/emit.h"
#include "engine/engine.h"

namespace anc::engine {
namespace {

Sweep_outcome run_profiled(Sweep_grid grid, std::size_t threads)
{
    grid.math_profiles = {dsp::Math_profile::exact, dsp::Math_profile::fast};
    Executor_config config;
    config.threads = threads;
    config.base_seed = 9090;
    const std::vector<Task_result> tasks =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;
    return Sweep_outcome{tasks, aggregate(tasks)};
}

const Point_summary* find_partner(const std::vector<Point_summary>& points,
                                  const Point_key& exact_key)
{
    Point_key partner_key = exact_key;
    partner_key.math_profile = dsp::Math_profile::fast;
    for (const Point_summary& point : points)
        if (point.key == partner_key)
            return &point;
    return nullptr;
}

/// Assert every exact point has a fast partner inside the corridor: the
/// delivery-rate difference within a pooled binomial interval, and the
/// mean BER difference within `ber_slack` absolute.
void expect_corridor(const std::vector<Point_summary>& points, double ber_slack)
{
    std::size_t compared = 0;
    for (const Point_summary& exact : points) {
        if (exact.key.math_profile != dsp::Math_profile::exact)
            continue;
        const Point_summary* fast = find_partner(points, exact.key);
        ASSERT_NE(fast, nullptr) << "no fast partner for " << exact.key.scenario;
        ++compared;

        // The workload shape is profile-independent.
        ASSERT_EQ(exact.totals.packets_attempted, fast->totals.packets_attempted);
        const double n = static_cast<double>(exact.totals.packets_attempted);
        ASSERT_GT(n, 0.0);

        // Pooled binomial corridor on the delivery rate: 4 sigma of the
        // difference of two independent proportions, plus a one-packet
        // continuity term.  Paired realizations make the true spread far
        // smaller, so 4 sigma is generous without being vacuous: a noise
        // or kernel bug that shifts delivery materially still fails.
        const double p_exact = exact.totals.delivery_rate();
        const double p_fast = fast->totals.delivery_rate();
        const double pooled = 0.5 * (p_exact + p_fast);
        const double sigma = std::sqrt(std::max(2.0 * pooled * (1.0 - pooled) / n, 0.0));
        const double corridor = 4.0 * sigma + 2.0 / n;
        EXPECT_LE(std::abs(p_exact - p_fast), corridor)
            << exact.key.scenario << " @ " << exact.key.snr_db << " dB ("
            << exact.key.scheme << "): exact " << p_exact << " fast " << p_fast;

        EXPECT_LE(std::abs(exact.totals.mean_ber() - fast->totals.mean_ber()),
                  ber_slack)
            << exact.key.scenario << " @ " << exact.key.snr_db << " dB ("
            << exact.key.scheme << ")";
    }
    EXPECT_GT(compared, 0u);
}

Sweep_grid alice_bob_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"};
    grid.schemes = {"anc", "traditional"};
    grid.snr_db = {21.0, 25.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 8;
    return grid;
}

Sweep_grid x_topology_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"x_topology"};
    grid.schemes = {"anc", "cope"};
    grid.snr_db = {22.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 6;
    return grid;
}

Sweep_grid fading_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob_fading"};
    grid.schemes = {"anc"};
    grid.snr_db = {25.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.coherence_blocks = {2048};
    grid.mean_link_gains = {1.3};
    grid.repetitions = 8;
    return grid;
}

TEST(MathProfileCorridor, AliceBobWithinCorridorAt1And8Threads)
{
    expect_corridor(run_profiled(alice_bob_grid(), 1).points, 0.02);
    expect_corridor(run_profiled(alice_bob_grid(), 8).points, 0.02);
}

TEST(MathProfileCorridor, XTopologyWithinCorridorAt1And8Threads)
{
    expect_corridor(run_profiled(x_topology_grid(), 1).points, 0.02);
    expect_corridor(run_profiled(x_topology_grid(), 8).points, 0.02);
}

TEST(MathProfileCorridor, FadingPointWithinCorridorAt1And8Threads)
{
    // Fading deliveries are sparser (deep fades kill whole packets), so
    // the BER corridor is wider; the binomial corridor self-scales.
    expect_corridor(run_profiled(fading_grid(), 1).points, 0.05);
    expect_corridor(run_profiled(fading_grid(), 8).points, 0.05);
}

TEST(MathProfileCorridor, FastProfileIsThreadInvariant)
{
    // Relaxed determinism is still determinism: the fast profile must be
    // bit-identical across thread counts and replays, exactly like exact.
    Sweep_grid grid = alice_bob_grid();
    grid.math_profiles = {dsp::Math_profile::fast};
    Executor_config serial;
    serial.threads = 1;
    serial.base_seed = 777;
    Executor_config parallel;
    parallel.threads = 8;
    parallel.base_seed = 777;
    const std::vector<Task_result> a =
        run_grid(grid, Scenario_registry::builtin(), serial).tasks;
    const std::vector<Task_result> b =
        run_grid(grid, Scenario_registry::builtin(), parallel).tasks;
    EXPECT_EQ(to_json(a, aggregate(a)), to_json(b, aggregate(b)));
}

TEST(MathProfileCorridor, ProfilesAreTaggedAndNeverMixed)
{
    const Sweep_outcome outcome = run_profiled(alice_bob_grid(), 4);
    // Every point is tagged, both profiles appear, and aggregation kept
    // them apart (equal point counts per profile).
    std::size_t exact_points = 0;
    std::size_t fast_points = 0;
    for (const Point_summary& point : outcome.points) {
        if (point.key.math_profile == dsp::Math_profile::exact)
            ++exact_points;
        else
            ++fast_points;
    }
    EXPECT_EQ(exact_points, fast_points);
    EXPECT_GT(exact_points, 0u);

    const std::string json = to_json(outcome.tasks, outcome.points);
    EXPECT_NE(json.find("\"math_profile\":\"exact\""), std::string::npos);
    EXPECT_NE(json.find("\"math_profile\":\"fast\""), std::string::npos);
}

TEST(MathProfileCorridor, ProfileAxisIsSeedCollapsed)
{
    Sweep_grid grid = alice_bob_grid();
    grid.math_profiles = {dsp::Math_profile::exact, dsp::Math_profile::fast};
    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    // Tasks differing only in profile (and/or scheme) share a seed_index:
    // the corridor comparison is paired on channel realizations.
    for (const Sweep_task& a : tasks) {
        for (const Sweep_task& b : tasks) {
            const bool same_point_and_rep = a.scenario == b.scenario
                && a.config.snr_db == b.config.snr_db
                && a.repetition == b.repetition;
            if (same_point_and_rep) {
                EXPECT_EQ(a.seed_index, b.seed_index);
            }
        }
    }
    // And a default grid (single exact profile) expands exactly as before.
    Sweep_grid plain = alice_bob_grid();
    const std::vector<Sweep_task> before = expand(plain, Scenario_registry::builtin());
    ASSERT_EQ(tasks.size(), 2 * before.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(before[i].config.math_profile, dsp::Math_profile::exact);
}

} // namespace
} // namespace anc::engine
