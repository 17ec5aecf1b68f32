// Determinism of the fading scenarios on the engine: bit-identical sweep
// output at any thread count, scheme-collapsed fading realizations, and
// workspace-recycling immunity — the same guarantees the fixed-gain
// scenarios carry, extended to the Rayleigh path.

#include <gtest/gtest.h>

#include <string>

#include "channel/medium.h"
#include "dsp/workspace.h"
#include "engine/emit.h"
#include "engine/engine.h"
#include "net/topology.h"
#include "util/rng.h"

namespace anc::engine {
namespace {

Sweep_grid small_fading_grid()
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob_fading"};
    grid.schemes = {"anc", "traditional"};
    grid.snr_db = {25.0};
    grid.coherence_blocks = {512, 4096};
    grid.mean_link_gains = {1.0};
    grid.payload_bits = {512};
    grid.exchanges = {2};
    grid.repetitions = 3;
    return grid;
}

std::string run_to_json(const Sweep_grid& grid, std::size_t threads)
{
    Executor_config config;
    config.threads = threads;
    config.base_seed = 20260;
    const std::vector<Task_result> results =
        run_grid(grid, Scenario_registry::builtin(), config).tasks;
    return to_json(results, aggregate(results));
}

TEST(FadingDeterminism, SweepJsonIsBitIdenticalAcross1_4_8Threads)
{
    const std::string serial = run_to_json(small_fading_grid(), 1);
    EXPECT_EQ(serial, run_to_json(small_fading_grid(), 4));
    EXPECT_EQ(serial, run_to_json(small_fading_grid(), 8));
}

TEST(FadingDeterminism, WarmDirtyWorkspaceProducesIdenticalJson)
{
    const std::string cold = run_to_json(small_fading_grid(), 1);

    dsp::Workspace dirty;
    {
        auto signal = dirty.signal();
        signal->assign(5000, dsp::Sample{123.0, -456.0});
        auto bits = dirty.bits();
        bits->assign(4096, 1);
    }
    const dsp::Workspace::Bind bind{dirty};
    EXPECT_EQ(cold, run_to_json(small_fading_grid(), 1));
    EXPECT_EQ(cold, run_to_json(small_fading_grid(), 1)); // now thoroughly warm
}

TEST(FadingDeterminism, SchemeCollapseSharesSeedIndexAcrossSchemes)
{
    const std::vector<Sweep_task> tasks =
        expand(small_fading_grid(), Scenario_registry::builtin());
    // Tasks that differ only in scheme must share seed_index — the
    // paired-gain design: both schemes see the same fading realization.
    for (const Sweep_task& task : tasks) {
        for (const Sweep_task& other : tasks) {
            const bool same_point = task.config.snr_db == other.config.snr_db
                && task.config.coherence_block == other.config.coherence_block
                && task.repetition == other.repetition;
            if (same_point)
                EXPECT_EQ(task.seed_index, other.seed_index);
            else
                EXPECT_NE(task.seed_index, other.seed_index);
        }
    }
}

TEST(FadingDeterminism, PairedSchemesSeeIdenticalLinkRealizations)
{
    // What both schemes of a scheme-collapsed pair do at the same seed:
    // build the topology from identically-seeded rngs.  Every directed
    // link must come out with the same phase, drift, and fading seed.
    net::Link_fading fading;
    fading.model = chan::Gain_model::rayleigh_block;
    fading.coherence_block = 777;

    chan::Medium medium_a{0.01, Pcg32{1, 2}};
    chan::Medium medium_b{0.01, Pcg32{1, 2}};
    Pcg32 rng_a{555, 0x0a11ce0bu};
    Pcg32 rng_b{555, 0x0a11ce0bu};
    const net::Alice_bob_nodes nodes;
    install_alice_bob(medium_a, nodes, net::Alice_bob_gains{}, fading, rng_a);
    install_alice_bob(medium_b, nodes, net::Alice_bob_gains{}, fading, rng_b);

    const std::pair<chan::Node_id, chan::Node_id> pairs[] = {
        {nodes.alice, nodes.router},
        {nodes.router, nodes.alice},
        {nodes.bob, nodes.router},
        {nodes.router, nodes.bob},
    };
    for (const auto& [from, to] : pairs) {
        const chan::Link_params& a = medium_a.link(from, to).params();
        const chan::Link_params& b = medium_b.link(from, to).params();
        EXPECT_EQ(a.phase, b.phase);
        EXPECT_EQ(a.phase_drift, b.phase_drift);
        EXPECT_EQ(a.gain_model, chan::Gain_model::rayleigh_block);
        EXPECT_EQ(a.coherence_block, 777u);
        EXPECT_EQ(a.fading_seed, b.fading_seed);
    }
    // Distinct links fade independently.
    EXPECT_NE(medium_a.link(nodes.alice, nodes.router).params().fading_seed,
              medium_a.link(nodes.router, nodes.alice).params().fading_seed);
}

TEST(FadingDeterminism, MediumEpochRefreshesFadesPerExchange)
{
    // The sims advance the medium's fading epoch once per exchange;
    // successive epochs must resample every faded link, and returning
    // to an epoch must replay its realization exactly (zero noise
    // isolates the fading path).
    chan::Medium medium{0.0, Pcg32{3, 4}};
    chan::Link_params params;
    params.gain_model = chan::Gain_model::rayleigh_block;
    params.coherence_block = 32;
    params.fading_seed = 0xfeed;
    medium.set_link(1, 2, params);

    const dsp::Signal sent(64, dsp::Sample{1.0, 0.0});
    const chan::Transmission txs[] = {{1, sent, 0}};

    dsp::Signal epoch0;
    dsp::Signal epoch1;
    dsp::Signal epoch0_again;
    medium.receive_into(2, txs, 0, epoch0);
    medium.set_fading_epoch(1);
    medium.receive_into(2, txs, 0, epoch1);
    medium.set_fading_epoch(0);
    medium.receive_into(2, txs, 0, epoch0_again);

    EXPECT_NE(epoch0[0], epoch1[0]);
    ASSERT_EQ(epoch0.size(), epoch0_again.size());
    for (std::size_t n = 0; n < epoch0.size(); ++n)
        EXPECT_EQ(epoch0[n], epoch0_again[n]);
}

TEST(FadingDeterminism, FadingScenarioActuallyFades)
{
    // Guard against the fading config being silently dropped: under fast
    // fading (several fade boundaries per frame) the CRC-gated
    // traditional scheme must lose packets it delivers over fixed links.
    Scenario_config config;
    config.scheme = "traditional";
    config.payload_bits = 1024;
    config.exchanges = 5;
    config.snr_db = 25.0;
    config.coherence_block = 512;

    const Scenario_registry& registry = Scenario_registry::builtin();
    const Scenario_result fixed = registry.at("alice_bob").run(config, 9);
    const Scenario_result faded = registry.at("alice_bob_fading").run(config, 9);
    EXPECT_LT(faded.metrics.packets_delivered, fixed.metrics.packets_delivered);
}

TEST(FadingDeterminism, NewAxesLandInTaskConfigAndPointKey)
{
    Sweep_grid grid;
    grid.scenarios = {"alice_bob"};
    grid.schemes = {"anc"};
    grid.detector_thresholds_db = {6.0, 12.0};
    grid.interleave_rows = {0, 8};
    grid.coherence_blocks = {1024};
    grid.mean_link_gains = {0.5};

    const std::vector<Sweep_task> tasks = expand(grid, Scenario_registry::builtin());
    ASSERT_EQ(tasks.size(), 4u);
    EXPECT_EQ(tasks[0]
                  .config.receiver.interference_detector.variance_threshold_db,
              6.0);
    EXPECT_EQ(tasks[3]
                  .config.receiver.interference_detector.variance_threshold_db,
              12.0);
    EXPECT_EQ(tasks[0].config.fec_interleave_rows, 0u);
    EXPECT_EQ(tasks[1].config.fec_interleave_rows, 8u);

    const Point_key key = key_of(tasks[1]);
    EXPECT_EQ(key.detector_threshold_db, 6.0);
    EXPECT_EQ(key.interleave_rows, 8u);
    EXPECT_EQ(key.coherence_block, 1024u);
    EXPECT_EQ(key.mean_link_gain, 0.5);
}

} // namespace
} // namespace anc::engine
