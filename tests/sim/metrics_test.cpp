#include "sim/metrics.h"

#include <gtest/gtest.h>

namespace anc::sim {
namespace {

TEST(Metrics, EmptyRunIsZero)
{
    const Run_metrics metrics;
    EXPECT_DOUBLE_EQ(metrics.mean_ber(), 0.0);
    EXPECT_DOUBLE_EQ(metrics.delivery_rate(), 0.0);
    EXPECT_DOUBLE_EQ(metrics.throughput(), 0.0);
    EXPECT_DOUBLE_EQ(metrics.raw_throughput(), 0.0);
    EXPECT_DOUBLE_EQ(metrics.mean_overlap(), 0.0);
}

TEST(Metrics, RawThroughput)
{
    Run_metrics metrics;
    metrics.payload_bits_delivered = 1000;
    metrics.airtime_symbols = 2000.0;
    EXPECT_DOUBLE_EQ(metrics.raw_throughput(), 0.5);
}

TEST(Metrics, FecChargeReducesThroughput)
{
    Run_metrics metrics;
    metrics.payload_bits_delivered = 1000;
    metrics.airtime_symbols = 1000.0;
    metrics.packet_ber.add(0.04); // paper's 4% BER -> 8% redundancy
    EXPECT_NEAR(metrics.throughput(), 1.0 / 1.08, 1e-12);
}

TEST(Metrics, ZeroBerNoCharge)
{
    Run_metrics metrics;
    metrics.payload_bits_delivered = 500;
    metrics.airtime_symbols = 500.0;
    metrics.packet_ber.add(0.0);
    EXPECT_DOUBLE_EQ(metrics.throughput(), metrics.raw_throughput());
}

TEST(Metrics, DeliveryRate)
{
    Run_metrics metrics;
    metrics.packets_attempted = 10;
    metrics.packets_delivered = 7;
    EXPECT_DOUBLE_EQ(metrics.delivery_rate(), 0.7);
}

TEST(Metrics, GainIsThroughputRatio)
{
    Run_metrics anc;
    anc.payload_bits_delivered = 2000;
    anc.airtime_symbols = 1000.0;
    Run_metrics base;
    base.payload_bits_delivered = 1000;
    base.airtime_symbols = 1000.0;
    EXPECT_DOUBLE_EQ(anc.throughput() / base.throughput(), 2.0);
}

} // namespace
} // namespace anc::sim
