#include "core/phase_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/phase.h"
#include "util/rng.h"

namespace anc {
namespace {

constexpr double pi = std::numbers::pi;

dsp::Sample compose(double a, double theta, double b, double phi)
{
    return std::polar(a, theta) + std::polar(b, phi);
}

/// One of the two solutions must recover (theta, phi) up to 2*pi.
void expect_solution_contains(const Phase_solutions& solutions, double theta, double phi,
                              double tolerance = 1e-9)
{
    const bool first_matches =
        phase_distance(solutions.pair[0].theta, theta) < tolerance
        && phase_distance(solutions.pair[0].phi, phi) < tolerance;
    const bool second_matches =
        phase_distance(solutions.pair[1].theta, theta) < tolerance
        && phase_distance(solutions.pair[1].phi, phi) < tolerance;
    EXPECT_TRUE(first_matches || second_matches)
        << "theta=" << theta << " phi=" << phi
        << " got (" << solutions.pair[0].theta << "," << solutions.pair[0].phi << ") and ("
        << solutions.pair[1].theta << "," << solutions.pair[1].phi << ")";
}

TEST(PhaseSolver, RecoversKnownPhases)
{
    const double a = 1.0;
    const double b = 0.7;
    const double theta = 0.8;
    const double phi = -1.9;
    const auto solutions = solve_phases(compose(a, theta, b, phi), a, b);
    EXPECT_FALSE(solutions.clamped);
    expect_solution_contains(solutions, theta, phi);
}

TEST(PhaseSolver, ExhaustivePhaseSweep)
{
    // Property: for every true (theta, phi) pair, the solver's candidate
    // set contains it.  Sweep the whole torus.
    const double a = 1.0;
    const double b = 0.6;
    for (double theta = -3.0; theta <= 3.0; theta += 0.37) {
        for (double phi = -3.0; phi <= 3.0; phi += 0.41) {
            const auto solutions = solve_phases(compose(a, theta, b, phi), a, b);
            expect_solution_contains(solutions, theta, phi, 1e-7);
        }
    }
}

TEST(PhaseSolver, BothSolutionsReconstructY)
{
    // Property (the geometric content of Lemma 6.1): each candidate pair
    // must itself sum to y.
    Pcg32 rng{501};
    for (int trial = 0; trial < 500; ++trial) {
        const double a = 0.2 + 2.0 * rng.next_double();
        const double b = 0.2 + 2.0 * rng.next_double();
        const double theta = (rng.next_double() - 0.5) * 2.0 * pi;
        const double phi = (rng.next_double() - 0.5) * 2.0 * pi;
        const dsp::Sample y = compose(a, theta, b, phi);
        const auto solutions = solve_phases(y, a, b);
        for (const Phase_pair& pair : solutions.pair) {
            const dsp::Sample rebuilt = compose(a, pair.theta, b, pair.phi);
            EXPECT_NEAR(rebuilt.real(), y.real(), 1e-6);
            EXPECT_NEAR(rebuilt.imag(), y.imag(), 1e-6);
        }
    }
}

TEST(PhaseSolver, SolutionsComeInConjugatePairs)
{
    // The two solutions mirror around arg(y): theta_1 + theta_2 should
    // bracket it symmetrically.
    const double a = 1.0;
    const double b = 0.5;
    const double theta = 0.3;
    const double phi = 1.4;
    const dsp::Sample y = compose(a, theta, b, phi);
    const auto solutions = solve_phases(y, a, b);
    const double mid1 = wrap_phase(solutions.pair[0].theta - std::arg(y));
    const double mid2 = wrap_phase(solutions.pair[1].theta - std::arg(y));
    EXPECT_NEAR(mid1, -mid2, 1e-9);
}

TEST(PhaseSolver, DegenerateAlignedSignals)
{
    // theta == phi: |y| = a + b, D = 1 exactly; the two solutions merge.
    const double a = 1.0;
    const double b = 0.4;
    const double theta = 0.7;
    const auto solutions = solve_phases(compose(a, theta, b, theta), a, b);
    EXPECT_NEAR(solutions.d, 1.0, 1e-9);
    expect_solution_contains(solutions, theta, theta, 1e-6);
}

TEST(PhaseSolver, DegenerateOpposedSignals)
{
    // theta == phi + pi: |y| = a - b, D = -1.
    const double a = 1.0;
    const double b = 0.4;
    const double theta = 0.7;
    const double phi = theta - pi;
    const auto solutions = solve_phases(compose(a, theta, b, phi), a, b);
    EXPECT_NEAR(solutions.d, -1.0, 1e-9);
    expect_solution_contains(solutions, theta, phi, 1e-6);
}

TEST(PhaseSolver, ClampsInconsistentMagnitude)
{
    // |y| larger than a+b is geometrically impossible: the solver must
    // clamp rather than produce NaNs.
    const dsp::Sample y{5.0, 0.0};
    const auto solutions = solve_phases(y, 1.0, 1.0);
    EXPECT_TRUE(solutions.clamped);
    for (const Phase_pair& pair : solutions.pair) {
        EXPECT_TRUE(std::isfinite(pair.theta));
        EXPECT_TRUE(std::isfinite(pair.phi));
    }
}

TEST(PhaseSolver, ClampsTinyMagnitude)
{
    const dsp::Sample y{1e-9, 0.0};
    const auto solutions = solve_phases(y, 1.0, 0.9); // |a-b| = 0.1 > |y|
    EXPECT_TRUE(solutions.clamped);
    for (const Phase_pair& pair : solutions.pair) {
        EXPECT_TRUE(std::isfinite(pair.theta));
        EXPECT_TRUE(std::isfinite(pair.phi));
    }
}

TEST(PhaseSolver, RejectsNonPositiveAmplitudes)
{
    const dsp::Sample y{1.0, 0.0};
    EXPECT_THROW(solve_phases(y, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(solve_phases(y, 1.0, -1.0), std::invalid_argument);
    // NaN fails every ordered comparison, so it must not slip past the
    // guard as "not <= 0".
    EXPECT_THROW(solve_phases(y, std::nan(""), 1.0), std::invalid_argument);
    EXPECT_THROW(solve_phases(y, 1.0, std::nan("")), std::invalid_argument);
}

TEST(PhaseSolver, NoiseRobustness)
{
    // With mild noise the candidate set still contains a pair close to the
    // truth.
    Pcg32 rng{502};
    const double a = 1.0;
    const double b = 0.8;
    int hits = 0;
    const int trials = 300;
    for (int trial = 0; trial < trials; ++trial) {
        const double theta = (rng.next_double() - 0.5) * 2.0 * pi;
        const double phi = (rng.next_double() - 0.5) * 2.0 * pi;
        dsp::Sample y = compose(a, theta, b, phi);
        y += dsp::Sample{0.02 * rng.next_gaussian(), 0.02 * rng.next_gaussian()};
        const auto solutions = solve_phases(y, a, b);
        for (const Phase_pair& pair : solutions.pair) {
            if (phase_distance(pair.theta, theta) < 0.25
                && phase_distance(pair.phi, phi) < 0.25) {
                ++hits;
                break;
            }
        }
    }
    EXPECT_GT(hits, trials * 95 / 100);
}

} // namespace
} // namespace anc
