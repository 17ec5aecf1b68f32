#include "net/topology.h"

#include <gtest/gtest.h>

#include <complex>

#include "util/rng.h"

#include "support/link_probe.h"

namespace anc::net {
namespace {

// The topologies' media are noiseless, so a unit impulse reads a link
// back: nothing arrives without one, and its first sample is
// polar(gain, phase).

bool has_link(chan::Medium& medium, chan::Node_id from, chan::Node_id to)
{
    return !test::unit_response(medium, from, to).empty();
}

dsp::Sample rotor(chan::Medium& medium, chan::Node_id from, chan::Node_id to)
{
    const dsp::Signal heard = test::unit_response(medium, from, to);
    return heard.empty() ? dsp::Sample{} : heard[0];
}

TEST(Topology, AliceBobLinks)
{
    chan::Medium medium{0.0, Pcg32{1101}};
    Pcg32 rng{1102};
    const Alice_bob_nodes& nodes = alice_bob_nodes;
    install_alice_bob(medium, Alice_bob_gains{}, {}, rng);

    EXPECT_TRUE(has_link(medium, nodes.alice, nodes.router));
    EXPECT_TRUE(has_link(medium, nodes.router, nodes.alice));
    EXPECT_TRUE(has_link(medium, nodes.bob, nodes.router));
    EXPECT_TRUE(has_link(medium, nodes.router, nodes.bob));
    // Alice and Bob are out of radio range of each other (the premise).
    EXPECT_FALSE(has_link(medium, nodes.alice, nodes.bob));
    EXPECT_FALSE(has_link(medium, nodes.bob, nodes.alice));
}

TEST(Topology, ChainLinks)
{
    chan::Medium medium{0.0, Pcg32{1103}};
    Pcg32 rng{1104};
    const Chain_nodes& nodes = chain_nodes;
    install_chain(medium, Chain_gains{}, {}, rng);

    EXPECT_TRUE(has_link(medium, nodes.n1, nodes.n2));
    EXPECT_TRUE(has_link(medium, nodes.n2, nodes.n1));
    EXPECT_TRUE(has_link(medium, nodes.n2, nodes.n3));
    EXPECT_TRUE(has_link(medium, nodes.n3, nodes.n4));
    // Two hops apart: out of range — N4 never hears N1 (§2(b)).
    EXPECT_FALSE(has_link(medium, nodes.n1, nodes.n3));
    EXPECT_FALSE(has_link(medium, nodes.n1, nodes.n4));
    EXPECT_FALSE(has_link(medium, nodes.n2, nodes.n4));
}

TEST(Topology, XLinks)
{
    chan::Medium medium{0.0, Pcg32{1105}};
    Pcg32 rng{1106};
    const X_nodes& nodes = x_nodes;
    install_x(medium, X_gains{}, {}, rng);

    for (const chan::Node_id spoke : {nodes.n1, nodes.n2, nodes.n3, nodes.n4}) {
        EXPECT_TRUE(has_link(medium, spoke, nodes.n5));
        EXPECT_TRUE(has_link(medium, nodes.n5, spoke));
    }
    // Overhearing links with their interference counterparts.
    EXPECT_TRUE(has_link(medium, nodes.n1, nodes.n2));
    EXPECT_TRUE(has_link(medium, nodes.n3, nodes.n4));
    EXPECT_TRUE(has_link(medium, nodes.n3, nodes.n2));
    EXPECT_TRUE(has_link(medium, nodes.n1, nodes.n4));
    // The two senders do not hear each other.
    EXPECT_FALSE(has_link(medium, nodes.n1, nodes.n3));
}

TEST(Topology, XOverhearStrongerThanCross)
{
    chan::Medium medium{0.0, Pcg32{1107}};
    Pcg32 rng{1108};
    const X_nodes& nodes = x_nodes;
    const X_gains gains;
    install_x(medium, gains, {}, rng);
    EXPECT_GT(std::norm(rotor(medium, nodes.n1, nodes.n2)),
              std::norm(rotor(medium, nodes.n3, nodes.n2)));
}

TEST(Topology, LinkPhasesAreRandomized)
{
    chan::Medium medium{0.0, Pcg32{1109}};
    Pcg32 rng{1110};
    const Alice_bob_nodes& nodes = alice_bob_nodes;
    install_alice_bob(medium, Alice_bob_gains{}, {}, rng);
    const double phase_ar = std::arg(rotor(medium, nodes.alice, nodes.router));
    const double phase_ra = std::arg(rotor(medium, nodes.router, nodes.alice));
    EXPECT_NE(phase_ar, phase_ra);
}

} // namespace
} // namespace anc::net
