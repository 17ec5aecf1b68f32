// The per-link AGC detection threshold (the promoted Medium-layer form
// of the old X_config snoop knob): storage on Link_params, the query
// through the Medium, and the AGC rule behind the X topology's value.

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

    params.detection_threshold_db = 9.0;
    medium.set_link(1, 2, params);
    ASSERT_TRUE(medium.detection_threshold_db(1, 2).has_value());
    EXPECT_DOUBLE_EQ(*medium.detection_threshold_db(1, 2), 9.0);
}

TEST(DetectionThreshold, InstallXStampsTheOverhearLinks)
{
    Medium medium{0.0, Pcg32{3}};
    const net::X_nodes& nodes = net::x_nodes;
    net::X_gains gains;
    Pcg32 rng{5, 5};
    net::install_x(medium, gains, {}, rng);
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

TEST(DetectionThreshold, AgcRuleLowersByTheBudgetDeficit)
{
    // The X topology's default overhear threshold is the AGC rule rounded:
    // the 15 dB carrier-sense threshold lowered by the overhear link's
    // budget deficit, -20*log10(0.5) ~ 6.02 dB.
    const net::X_gains gains;
    ASSERT_TRUE(gains.overhear_detection_threshold_db.has_value());
    EXPECT_NEAR(15.0 + 20.0 * std::log10(gains.overhear),
                *gains.overhear_detection_threshold_db, 0.03);
    EXPECT_LT(*gains.overhear_detection_threshold_db, 15.0);
}

} // namespace
} // namespace anc::chan
