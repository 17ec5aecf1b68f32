// The per-link AGC detection threshold (the promoted Medium-layer form
// of the old X_config snoop knob): storage on Link_params, query/set
// through the Medium, and the AGC derivation rule.

#include <gtest/gtest.h>

#include <cmath>

#include "channel/link.h"
#include "channel/medium.h"
#include "net/topology.h"

namespace anc::chan {
namespace {

TEST(DetectionThreshold, AbsentByDefaultAndQueryable)
{
    Medium medium{0.0, Pcg32{1}};
    Link_params params;
    params.gain = 0.5;
    medium.set_link(1, 2, params);
    EXPECT_FALSE(medium.detection_threshold_db(1, 2).has_value());
    EXPECT_FALSE(medium.detection_threshold_db(7, 8).has_value()); // no link

    medium.set_detection_threshold_db(1, 2, 9.0);
    ASSERT_TRUE(medium.detection_threshold_db(1, 2).has_value());
    EXPECT_DOUBLE_EQ(*medium.detection_threshold_db(1, 2), 9.0);

    medium.set_detection_threshold_db(1, 2, std::nullopt);
    EXPECT_FALSE(medium.detection_threshold_db(1, 2).has_value());

    EXPECT_THROW(medium.set_detection_threshold_db(7, 8, 5.0), std::out_of_range);
}

TEST(DetectionThreshold, SettingKeepsTheLinkOtherwiseIntact)
{
    Medium medium{0.0, Pcg32{1}};
    Link_params params;
    params.gain = 0.75;
    params.phase = 1.25;
    params.delay = 3;
    params.phase_drift = 0.002;
    medium.set_link(1, 2, params);
    medium.set_detection_threshold_db(1, 2, 8.5);
    const Link_params& after = medium.link(1, 2).params();
    EXPECT_DOUBLE_EQ(after.gain, 0.75);
    EXPECT_DOUBLE_EQ(after.phase, 1.25);
    EXPECT_EQ(after.delay, 3u);
    EXPECT_DOUBLE_EQ(after.phase_drift, 0.002);
    ASSERT_TRUE(after.detection_threshold_db.has_value());
    EXPECT_DOUBLE_EQ(*after.detection_threshold_db, 8.5);
}

TEST(DetectionThreshold, AgcRuleLowersByTheBudgetDeficit)
{
    // Unit gain keeps the base; gain 0.5 listens 20*log10(2) ~ 6.02 dB
    // lower (the X topology's overhear links round this to 9 dB).
    EXPECT_DOUBLE_EQ(agc_detection_threshold_db(15.0, 1.0), 15.0);
    EXPECT_NEAR(agc_detection_threshold_db(15.0, 0.5), 15.0 - 6.0206, 1e-3);
    EXPECT_NEAR(agc_detection_threshold_db(20.0, 0.25), 20.0 - 12.0412, 1e-3);
    EXPECT_THROW(agc_detection_threshold_db(15.0, 0.0), std::invalid_argument);
}

TEST(DetectionThreshold, InstallXStampsTheOverhearLinks)
{
    Medium medium{0.0, Pcg32{3}};
    net::X_nodes nodes;
    net::X_gains gains;
    Pcg32 rng{5, 5};
    net::install_x(medium, nodes, gains, {}, rng);
    // The two snooping links carry the default 9 dB AGC threshold...
    ASSERT_TRUE(medium.detection_threshold_db(nodes.n1, nodes.n2).has_value());
    EXPECT_DOUBLE_EQ(*medium.detection_threshold_db(nodes.n1, nodes.n2), 9.0);
    ASSERT_TRUE(medium.detection_threshold_db(nodes.n3, nodes.n4).has_value());
    EXPECT_DOUBLE_EQ(*medium.detection_threshold_db(nodes.n3, nodes.n4), 9.0);
    // ...and nothing else does.
    EXPECT_FALSE(medium.detection_threshold_db(nodes.n1, nodes.n5).has_value());
    EXPECT_FALSE(medium.detection_threshold_db(nodes.n5, nodes.n2).has_value());
    EXPECT_FALSE(medium.detection_threshold_db(nodes.n3, nodes.n2).has_value());
}

} // namespace
} // namespace anc::chan
