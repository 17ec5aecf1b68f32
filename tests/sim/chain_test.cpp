#include "sim/chain.h"

#include <gtest/gtest.h>

#include "phy/frame.h"

#include "sim/alice_bob.h"

namespace anc::sim {
namespace {

Chain_config small_config(std::uint64_t seed)
{
    Chain_config config;
    config.payload_bits = 1024;
    config.exchanges = 8;
    config.seed = seed;
    return config;
}

TEST(ChainSim, TraditionalDeliversEverything)
{
    const Chain_result result = run_chain_traditional(small_config(1));
    EXPECT_EQ(result.metrics.packets_attempted, 8u);
    EXPECT_EQ(result.metrics.packets_delivered, 8u);
    EXPECT_LT(result.metrics.mean_ber(), 0.001);
}

TEST(ChainSim, TraditionalUsesThreeSlotsPerPacket)
{
    const Chain_config config = small_config(2);
    const Chain_result result = run_chain_traditional(config);
    const double frame_symbols = static_cast<double>(phy::frame_length(1024) + 1);
    EXPECT_NEAR(result.metrics.airtime_symbols,
                3.0 * frame_symbols * static_cast<double>(config.exchanges), 1.0);
}

TEST(ChainSim, AncDeliversMostPackets)
{
    const Chain_result result = run_chain_anc(small_config(3));
    EXPECT_EQ(result.metrics.packets_attempted, 8u);
    EXPECT_GE(result.metrics.packets_delivered, 7u);
}

TEST(ChainSim, AncBeatsTraditional)
{
    const Chain_config config = small_config(4);
    const Chain_result anc = run_chain_anc(config);
    const Chain_result traditional = run_chain_traditional(config);
    const double g = gain(anc.metrics, traditional.metrics);
    // Paper: ~1.36 measured, 1.5 theoretical.
    EXPECT_GT(g, 1.15);
    EXPECT_LT(g, 1.55);
}

TEST(ChainSim, BerLowerThanAliceBob)
{
    // §11.6: the chain decodes at the collision point, skipping the
    // amplified-noise broadcast, so its BER is lower.  The effect is
    // driven by the relay re-amplifying its own receiver noise, so it is
    // measured at the lower end of the operating band (22 dB), where
    // noise — not decoder ambiguity — dominates the residual errors.
    Chain_config chain_config = small_config(5);
    chain_config.exchanges = 20;
    chain_config.snr_db = 22.0;
    const Chain_result chain = run_chain_anc(chain_config);

    Alice_bob_config ab_config;
    ab_config.payload_bits = 1024;
    ab_config.exchanges = 20;
    ab_config.seed = 5;
    ab_config.snr_db = 22.0;
    const Alice_bob_result ab = run_alice_bob_anc(ab_config);

    ASSERT_FALSE(chain.ber_at_n2.empty());
    ASSERT_FALSE(ab.metrics.packet_ber.empty());
    EXPECT_LT(chain.ber_at_n2.mean(), ab.metrics.packet_ber.mean() + 1e-9);
}

TEST(ChainSim, EndToEndPayloadsFaithful)
{
    Chain_config config = small_config(6);
    config.exchanges = 10;
    const Chain_result result = run_chain_anc(config);
    // Delivered packets' BER must be small: errors can only creep in via
    // the N2 interference decode and then propagate.
    EXPECT_LT(result.metrics.mean_ber(), 0.05);
}

TEST(ChainSim, BerStaysLowPastSequenceNumberWrap)
{
    // The 16-bit sequence number wraps after 65,535 packets.  Each
    // delivery must still be scored against the payload its own packet
    // carried, not an earlier packet's with the same sequence number
    // (that mistake read mean BER 0.037 at 70,000 packets against 0.005
    // before the wrap).
    Chain_config config;
    config.payload_bits = 64;
    config.exchanges = 70000;
    config.snr_db = 30.0;
    config.math_profile = dsp::Math_profile::fast;
    config.seed = 1;
    const Chain_result result = run_chain_anc(config);
    EXPECT_GT(result.metrics.delivery_rate(), 0.9);
    EXPECT_LT(result.metrics.mean_ber(), 0.01);
}

TEST(ChainSim, DeterministicForSeed)
{
    const Chain_result a = run_chain_anc(small_config(7));
    const Chain_result b = run_chain_anc(small_config(7));
    EXPECT_EQ(a.metrics.packets_delivered, b.metrics.packets_delivered);
    EXPECT_DOUBLE_EQ(a.metrics.airtime_symbols, b.metrics.airtime_symbols);
}

} // namespace
} // namespace anc::sim
