#include "net/topology.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace anc::net {
namespace {

TEST(Topology, AliceBobLinks)
{
    chan::Medium medium{0.0, Pcg32{1101}};
    Pcg32 rng{1102};
    const Alice_bob_nodes nodes;
    install_alice_bob(medium, nodes, Alice_bob_gains{}, {}, rng);

    EXPECT_TRUE(medium.has_link(nodes.alice, nodes.router));
    EXPECT_TRUE(medium.has_link(nodes.router, nodes.alice));
    EXPECT_TRUE(medium.has_link(nodes.bob, nodes.router));
    EXPECT_TRUE(medium.has_link(nodes.router, nodes.bob));
    // Alice and Bob are out of radio range of each other (the premise).
    EXPECT_FALSE(medium.has_link(nodes.alice, nodes.bob));
    EXPECT_FALSE(medium.has_link(nodes.bob, nodes.alice));
}

TEST(Topology, ChainLinks)
{
    chan::Medium medium{0.0, Pcg32{1103}};
    Pcg32 rng{1104};
    const Chain_nodes nodes;
    install_chain(medium, nodes, Chain_gains{}, {}, rng);

    EXPECT_TRUE(medium.has_link(nodes.n1, nodes.n2));
    EXPECT_TRUE(medium.has_link(nodes.n2, nodes.n1));
    EXPECT_TRUE(medium.has_link(nodes.n2, nodes.n3));
    EXPECT_TRUE(medium.has_link(nodes.n3, nodes.n4));
    // Two hops apart: out of range — N4 never hears N1 (§2(b)).
    EXPECT_FALSE(medium.has_link(nodes.n1, nodes.n3));
    EXPECT_FALSE(medium.has_link(nodes.n1, nodes.n4));
    EXPECT_FALSE(medium.has_link(nodes.n2, nodes.n4));
}

TEST(Topology, XLinks)
{
    chan::Medium medium{0.0, Pcg32{1105}};
    Pcg32 rng{1106};
    const X_nodes nodes;
    install_x(medium, nodes, X_gains{}, {}, rng);

    for (const chan::Node_id spoke : {nodes.n1, nodes.n2, nodes.n3, nodes.n4}) {
        EXPECT_TRUE(medium.has_link(spoke, nodes.n5));
        EXPECT_TRUE(medium.has_link(nodes.n5, spoke));
    }
    // Overhearing links with their interference counterparts.
    EXPECT_TRUE(medium.has_link(nodes.n1, nodes.n2));
    EXPECT_TRUE(medium.has_link(nodes.n3, nodes.n4));
    EXPECT_TRUE(medium.has_link(nodes.n3, nodes.n2));
    EXPECT_TRUE(medium.has_link(nodes.n1, nodes.n4));
    // The two senders do not hear each other.
    EXPECT_FALSE(medium.has_link(nodes.n1, nodes.n3));
}

TEST(Topology, XOverhearStrongerThanCross)
{
    chan::Medium medium{0.0, Pcg32{1107}};
    Pcg32 rng{1108};
    const X_nodes nodes;
    const X_gains gains;
    install_x(medium, nodes, gains, {}, rng);
    EXPECT_GT(medium.link(nodes.n1, nodes.n2).power_gain(),
              medium.link(nodes.n3, nodes.n2).power_gain());
}

TEST(Topology, LinkPhasesAreRandomized)
{
    chan::Medium medium{0.0, Pcg32{1109}};
    Pcg32 rng{1110};
    const Alice_bob_nodes nodes;
    install_alice_bob(medium, nodes, Alice_bob_gains{}, {}, rng);
    const double phase_ar = medium.link(nodes.alice, nodes.router).params().phase;
    const double phase_ra = medium.link(nodes.router, nodes.alice).params().phase;
    EXPECT_NE(phase_ar, phase_ra);
}

} // namespace
} // namespace anc::net
