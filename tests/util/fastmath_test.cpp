// Error-bound locks for the fast atan2 kernel (util/fastmath.h).  The
// fast profile's scientific validity rests on two layers: these measured
// kernel bounds, and the statistical corridors at the scenario level
// (tests/engine/math_profile_corridor_test.cpp).  If a kernel change
// widens an error bound, this file fails before any corridor drifts.

#include "util/fastmath.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace anc {
namespace {

TEST(FastMath, Atan2BoundedError)
{
    Pcg32 rng{77, 3};
    double max_err = 0.0;
    for (int i = 0; i < 500000; ++i) {
        // Log-uniform magnitudes exercise wildly mismatched operands.
        const double my = std::exp((rng.next_double() - 0.5) * 60.0);
        const double mx = std::exp((rng.next_double() - 0.5) * 60.0);
        const double y = (rng.next_double() < 0.5) ? my : -my;
        const double x = (rng.next_double() < 0.5) ? mx : -mx;
        max_err = std::max(max_err, std::abs(fast_atan2(y, x) - std::atan2(y, x)));
    }
    // The documented bound: ≲1e-11 rad absolute (degree-12 kernel) —
    // six orders below the smallest phase decision margin.
    EXPECT_LT(max_err, 2e-11);
}

TEST(FastMath, Atan2QuadrantsAndSignedZeros)
{
    // Exact agreement cases: axes and signed zeros, where std::atan2 has
    // mandated values.
    EXPECT_EQ(fast_atan2(0.0, 1.0), std::atan2(0.0, 1.0));   // +0
    EXPECT_EQ(fast_atan2(-0.0, 1.0), std::atan2(-0.0, 1.0)); // -0
    EXPECT_EQ(fast_atan2(0.0, -1.0), std::atan2(0.0, -1.0)); // +pi
    EXPECT_EQ(fast_atan2(-0.0, -1.0), std::atan2(-0.0, -1.0)); // -pi
    EXPECT_EQ(fast_atan2(1.0, 0.0), std::atan2(1.0, 0.0));   // +pi/2
    EXPECT_EQ(fast_atan2(-1.0, 0.0), std::atan2(-1.0, 0.0)); // -pi/2
    EXPECT_EQ(fast_atan2(0.0, 0.0), std::atan2(0.0, 0.0));   // +0
    EXPECT_EQ(fast_atan2(0.0, -0.0), std::atan2(0.0, -0.0)); // +pi
    EXPECT_EQ(fast_atan2(-0.0, -0.0), std::atan2(-0.0, -0.0)); // -pi
}

} // namespace
} // namespace anc
