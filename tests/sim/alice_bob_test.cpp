#include "sim/alice_bob.h"

#include <gtest/gtest.h>

#include "phy/frame.h"

namespace anc::sim {
namespace {

Alice_bob_config small_config(std::uint64_t seed)
{
    Alice_bob_config config;
    config.payload_bits = 1024;
    config.exchanges = 6;
    config.seed = seed;
    return config;
}

TEST(AliceBobSim, TraditionalDeliversEverything)
{
    const Alice_bob_result result = run_alice_bob_traditional(small_config(1));
    EXPECT_EQ(result.metrics.packets_attempted, 12u);
    EXPECT_EQ(result.metrics.packets_delivered, 12u);
    // At 25 dB the per-hop BER is essentially zero.
    EXPECT_LT(result.metrics.mean_ber(), 0.001);
}

TEST(AliceBobSim, TraditionalUsesFourSlotsPerPair)
{
    const Alice_bob_config config = small_config(2);
    const Alice_bob_result result = run_alice_bob_traditional(config);
    const double frame_symbols = static_cast<double>(phy::frame_length(1024) + 1);
    EXPECT_NEAR(result.metrics.airtime_symbols,
                4.0 * frame_symbols * static_cast<double>(config.exchanges),
                1.0);
}

TEST(AliceBobSim, CopeDeliversEverything)
{
    const Alice_bob_result result = run_alice_bob_cope(small_config(3));
    EXPECT_EQ(result.metrics.packets_delivered, 12u);
    EXPECT_LT(result.metrics.mean_ber(), 0.001);
}

TEST(AliceBobSim, CopeUsesThreeSlotsPerPair)
{
    const Alice_bob_config config = small_config(4);
    const Alice_bob_result result = run_alice_bob_cope(config);
    const double data_frame = static_cast<double>(phy::frame_length(1024) + 1);
    const double coded_frame = static_cast<double>(phy::frame_length(1024 + 128) + 1);
    EXPECT_NEAR(result.metrics.airtime_symbols,
                (2.0 * data_frame + coded_frame) * static_cast<double>(config.exchanges),
                1.0);
}

TEST(AliceBobSim, AncDeliversWithLowBer)
{
    const Alice_bob_result result = run_alice_bob_anc(small_config(5));
    EXPECT_EQ(result.metrics.packets_attempted, 12u);
    // Decoding through a collision is lossier than clean hops, but at
    // 25 dB nearly every packet should make it.
    EXPECT_GE(result.metrics.packets_delivered, 10u);
    // Average BER in the paper's band (well under 10%).
    EXPECT_LT(result.metrics.mean_ber(), 0.10);
}

TEST(AliceBobSim, AncBeatsTraditionalThroughput)
{
    const Alice_bob_config config = small_config(6);
    const Alice_bob_result anc = run_alice_bob_anc(config);
    const Alice_bob_result traditional = run_alice_bob_traditional(config);
    const double g = anc.metrics.throughput() / traditional.metrics.throughput();
    EXPECT_GT(g, 1.3);
    EXPECT_LT(g, 2.0);
}

TEST(AliceBobSim, AncBeatsCopeThroughput)
{
    const Alice_bob_config config = small_config(7);
    const Alice_bob_result anc = run_alice_bob_anc(config);
    const Alice_bob_result cope = run_alice_bob_cope(config);
    const double g = anc.metrics.throughput() / cope.metrics.throughput();
    EXPECT_GT(g, 1.05);
    EXPECT_LT(g, 1.6);
}

TEST(AliceBobSim, CopeBeatsTraditional)
{
    const Alice_bob_config config = small_config(8);
    const Alice_bob_result cope = run_alice_bob_cope(config);
    const Alice_bob_result traditional = run_alice_bob_traditional(config);
    const double g = cope.metrics.throughput() / traditional.metrics.throughput();
    // Theoretical 4/3 minus the slightly longer coded frame.
    EXPECT_GT(g, 1.15);
    EXPECT_LT(g, 1.40);
}

TEST(AliceBobSim, AncOverlapNearPaperValue)
{
    // These short-frame test runs (1024-bit payloads) overlap ~67%; the
    // paper's 80% operating point holds for the default 2048-bit frames
    // (see the Fig. 9 bench and the trigger tests).
    Alice_bob_config config = small_config(9);
    config.exchanges = 20;
    const Alice_bob_result result = run_alice_bob_anc(config);
    EXPECT_GT(result.metrics.mean_overlap(), 0.55);
    EXPECT_LT(result.metrics.mean_overlap(), 0.85);
}

TEST(AliceBobSim, DeterministicForSeed)
{
    const Alice_bob_result a = run_alice_bob_anc(small_config(10));
    const Alice_bob_result b = run_alice_bob_anc(small_config(10));
    EXPECT_EQ(a.metrics.packets_delivered, b.metrics.packets_delivered);
    EXPECT_DOUBLE_EQ(a.metrics.airtime_symbols, b.metrics.airtime_symbols);
    EXPECT_DOUBLE_EQ(a.metrics.mean_ber(), b.metrics.mean_ber());
}

TEST(AliceBobSim, BothSidesDecode)
{
    Alice_bob_config config = small_config(11);
    config.exchanges = 10;
    const Alice_bob_result result = run_alice_bob_anc(config);
    EXPECT_GE(result.ber_at_alice.count(), 8u);
    EXPECT_GE(result.ber_at_bob.count(), 8u);
}

} // namespace
} // namespace anc::sim
