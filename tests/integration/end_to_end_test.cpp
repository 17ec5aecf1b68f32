// Cross-module integration checks: the paper's headline *relations* must
// hold on small runs (the benches reproduce the full-scale numbers).

#include <gtest/gtest.h>

#include "phy/frame.h"

#include "capacity/capacity.h"
#include "sim/alice_bob.h"
#include "sim/chain.h"
#include "sim/x_topology.h"
#include "util/db.h"

namespace anc::sim {
namespace {

TEST(EndToEnd, SchemeOrderingOnAliceBob)
{
    // ANC > COPE > traditional in throughput, as in §11.4.
    Alice_bob_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 42;
    const double anc = run_alice_bob_anc(config).metrics.throughput();
    const double cope = run_alice_bob_cope(config).metrics.throughput();
    const double traditional = run_alice_bob_traditional(config).metrics.throughput();
    EXPECT_GT(anc, cope);
    EXPECT_GT(cope, traditional);
}

TEST(EndToEnd, SlotRatiosApproximateTheory)
{
    // Airtime per delivered packet should approach the 2:3:4 slot pattern
    // of Fig. 1 (ANC pays extra for jitter).
    Alice_bob_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 43;
    const auto anc = run_alice_bob_anc(config);
    const auto cope = run_alice_bob_cope(config);
    const auto traditional = run_alice_bob_traditional(config);

    const double anc_air = anc.metrics.airtime_symbols
        / static_cast<double>(anc.metrics.packets_attempted);
    const double cope_air = cope.metrics.airtime_symbols
        / static_cast<double>(cope.metrics.packets_attempted);
    const double trad_air = traditional.metrics.airtime_symbols
        / static_cast<double>(traditional.metrics.packets_attempted);

    EXPECT_LT(anc_air, cope_air);
    EXPECT_LT(cope_air, trad_air);
    // Traditional is exactly 2 frames per packet; ANC must be within
    // (1, 1.35) frames per packet given jitter.
    const double frame_symbols = static_cast<double>(phy::frame_length(1024) + 1);
    EXPECT_NEAR(trad_air / frame_symbols, 2.0, 0.01);
    EXPECT_GT(anc_air / frame_symbols, 1.0);
    EXPECT_LT(anc_air / frame_symbols, 1.45);
}

TEST(EndToEnd, ChainGainBelowAliceBobGain)
{
    // Alice-Bob halves slots (gain -> 2), the chain cuts 3 to 2
    // (gain -> 1.5); the measured ordering must match.
    Alice_bob_config ab_config;
    ab_config.payload_bits = 1024;
    ab_config.exchanges = 10;
    ab_config.seed = 44;
    const double ab_gain = gain(run_alice_bob_anc(ab_config).metrics,
                                run_alice_bob_traditional(ab_config).metrics);

    Chain_config chain_config;
    chain_config.payload_bits = 1024;
    chain_config.exchanges = 10;
    chain_config.seed = 44;
    const double chain_gain = gain(run_chain_anc(chain_config).metrics,
                                   run_chain_traditional(chain_config).metrics);

    EXPECT_GT(ab_gain, chain_gain);
    EXPECT_GT(chain_gain, 1.1);
}

TEST(EndToEnd, XGainSlightlyBelowAliceBob)
{
    // §11.5: overhearing losses shave a few points off the X gains.
    Alice_bob_config ab_config;
    ab_config.payload_bits = 1024;
    ab_config.exchanges = 12;
    ab_config.seed = 45;
    const double ab_gain = gain(run_alice_bob_anc(ab_config).metrics,
                                run_alice_bob_traditional(ab_config).metrics);

    X_config x_config;
    x_config.payload_bits = 1024;
    x_config.exchanges = 12;
    x_config.seed = 45;
    const double x_gain = gain(run_x_anc(x_config).metrics,
                               run_x_traditional(x_config).metrics);

    EXPECT_LE(x_gain, ab_gain + 0.10);
    EXPECT_GT(x_gain, 1.1);
}

TEST(EndToEnd, MeasuredGainBelowCapacityBound)
{
    // The information-theoretic gain bound (2x) must dominate anything the
    // packet simulation achieves.
    Alice_bob_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 46;
    const double measured = gain(run_alice_bob_anc(config).metrics,
                                 run_alice_bob_traditional(config).metrics);
    const double theoretical = cap::capacity_gain(from_db(config.snr_db));
    EXPECT_LT(measured, 2.0);
    EXPECT_GT(theoretical, measured * 0.8); // same ballpark, theory above
}

TEST(EndToEnd, AncBerWellUnderFecBudget)
{
    // The FEC substrate must be able to absorb the residual BER the
    // decoder leaves: Hamming(7,4) corrects 1/7 ~ 14% worst-case isolated
    // errors, far above the observed means.
    Alice_bob_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 47;
    const auto result = run_alice_bob_anc(config);
    EXPECT_LT(result.metrics.mean_ber(), 0.08);
}

} // namespace
} // namespace anc::sim
