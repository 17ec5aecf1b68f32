#include "sim/x_topology.h"

#include <gtest/gtest.h>

#include <cmath>

#include "phy/detector.h"

namespace anc::sim {
namespace {

X_config small_config(std::uint64_t seed)
{
    X_config config;
    config.payload_bits = 1024;
    config.exchanges = 6;
    config.seed = seed;
    return config;
}

TEST(XSim, TraditionalDeliversEverything)
{
    const X_result result = run_x_traditional(small_config(1));
    EXPECT_EQ(result.metrics.packets_attempted, 12u);
    EXPECT_EQ(result.metrics.packets_delivered, 12u);
}

TEST(XSim, CopeDeliversNearlyEverything)
{
    const X_result result = run_x_cope(small_config(2));
    // Overhearing happens on clean transmissions under COPE; losses should
    // be rare.
    EXPECT_GE(result.metrics.packets_delivered, 11u);
    EXPECT_LE(result.overhear_failures, 1u);
}

TEST(XSim, CopeDeliversAtBottomOfBand)
{
    // Regression for the ROADMAP item "x_topology/cope delivers 0 packets
    // at 20 dB SNR": the overhear link (gain 0.5, ~6 dB below a spoke)
    // put the snooped packet *under* the default 15 dB detection
    // threshold at 20 dB SNR, so overhearing failed deterministically at
    // every seed and no COPE packet could ever be decoded.  The snoop
    // path now listens with a threshold lowered by the overhear link's
    // budget deficit.
    for (const std::uint64_t seed : {1ull, 2ull, 42ull}) {
        X_config config = small_config(seed);
        config.snr_db = 20.0;
        const X_result result = run_x_cope(config);
        EXPECT_GT(result.metrics.packets_delivered, 0u) << "seed " << seed;
        EXPECT_GE(result.metrics.packets_delivered,
                  result.metrics.packets_attempted / 2)
            << "seed " << seed;
    }
}

TEST(XSim, SnoopThresholdDoesNotDisturbHighSnr)
{
    // At 25 dB the historical 15 dB threshold already overheard fine;
    // the lowered per-link snoop default must deliver at least as much
    // there.  Clearing the override restores the pre-fix behavior (the
    // snooper falls back to the standard carrier-sense threshold).
    X_config historical = small_config(2);
    historical.gains.overhear_detection_threshold_db.reset(); // pre-fix
    const X_result old_threshold = run_x_cope(historical);
    const X_result new_threshold = run_x_cope(small_config(2));
    EXPECT_GE(new_threshold.metrics.packets_delivered,
              old_threshold.metrics.packets_delivered);
    EXPECT_LE(new_threshold.overhear_failures, old_threshold.overhear_failures);
}

TEST(XSim, AgcRuleKeepsBottomOfBandOverhearing)
{
    // The general Medium-layer form of the 20 dB fix: derive the
    // overhear links' threshold from the AGC rule (base carrier-sense
    // threshold minus the link's budget deficit) instead of the rounded
    // historical 9 dB, and COPE must still deliver at 20 dB SNR.
    for (const std::uint64_t seed : {1ull, 2ull, 42ull}) {
        X_config config = small_config(seed);
        config.snr_db = 20.0;
        config.gains.overhear_detection_threshold_db =
            phy::Packet_detector::Config{}.energy_threshold_db
            + 20.0 * std::log10(config.gains.overhear);
        const X_result result = run_x_cope(config);
        EXPECT_GT(result.metrics.packets_delivered, 0u) << "seed " << seed;
        EXPECT_GE(result.metrics.packets_delivered,
                  result.metrics.packets_attempted / 2)
            << "seed " << seed;
    }
}

TEST(XSim, AncDeliversMost)
{
    X_config config = small_config(3);
    config.exchanges = 10;
    const X_result result = run_x_anc(config);
    EXPECT_EQ(result.metrics.packets_attempted, 20u);
    // Overhearing under interference occasionally fails (§11.5).
    EXPECT_GE(result.metrics.packets_delivered, 14u);
}

TEST(XSim, AncBeatsTraditional)
{
    const X_config config = small_config(4);
    const X_result anc = run_x_anc(config);
    const X_result traditional = run_x_traditional(config);
    const double g = anc.metrics.throughput() / traditional.metrics.throughput();
    EXPECT_GT(g, 1.2);
    EXPECT_LT(g, 2.0);
}

TEST(XSim, AncBeatsCope)
{
    X_config config = small_config(5);
    config.exchanges = 10;
    const X_result anc = run_x_anc(config);
    const X_result cope = run_x_cope(config);
    EXPECT_GT(anc.metrics.throughput() / cope.metrics.throughput(), 1.0);
}

TEST(XSim, OverhearingFailuresTracked)
{
    X_config config = small_config(6);
    config.exchanges = 15;
    const X_result result = run_x_anc(config);
    EXPECT_EQ(result.overhear_attempts, 30u);
    // Failure rate should be modest but can be non-zero.
    EXPECT_LT(result.overhear_failure_rate(), 0.4);
}

TEST(XSim, WeakerOverhearLinkHurtsDelivery)
{
    X_config good = small_config(7);
    good.exchanges = 12;
    X_config bad = good;
    bad.gains.overhear = 0.30; // barely above the packet detector floor
    const X_result strong = run_x_anc(good);
    const X_result weak = run_x_anc(bad);
    EXPECT_GE(strong.metrics.packets_delivered, weak.metrics.packets_delivered);
}

TEST(XSim, DeterministicForSeed)
{
    const X_result a = run_x_anc(small_config(8));
    const X_result b = run_x_anc(small_config(8));
    EXPECT_EQ(a.metrics.packets_delivered, b.metrics.packets_delivered);
    EXPECT_EQ(a.overhear_failures, b.overhear_failures);
}

} // namespace
} // namespace anc::sim
