// Lemma 6.1: the two candidate phase pairs of an interfered sample.
//
// A received sample y = A e^{i theta} + B e^{i phi} constrains (theta,
// phi) to exactly two solutions — geometrically, two vectors of lengths A
// and B summing to y (Fig. 4 of the paper).  With
//     D = (|y|^2 - A^2 - B^2) / (2 A B)
// the solutions are
//     theta = arg(y (A + B D +- i B sqrt(1 - D^2)))
//     phi   = arg(y (B + A D -+ i A sqrt(1 - D^2)))
// pairing the upper signs of theta with the lower signs of phi.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>

#include "dsp/sample.h"

namespace anc {

struct Phase_pair {
    double theta = 0.0; // candidate phase of the first (known) signal
    double phi = 0.0;   // matching candidate phase of the second signal
};

struct Phase_solutions {
    std::array<Phase_pair, 2> pair;
    /// D fell outside [-1, 1] before clamping: |y| is inconsistent with
    /// amplitudes A and B (noise, estimation error, or a region where one
    /// signal is absent).  The clamped solutions coincide and are still
    /// the best geometric fit.
    bool clamped = false;
    double d = 0.0; // cos(theta - phi) after clamping
};

/// Eq. 3 / Eq. 4 before the arg: y times each factor, in the order
/// pair[0].theta, pair[0].phi, pair[1].theta, pair[1].phi of
/// solve_phases, whose phases are the args of these products.  The
/// solutions pair crosswise: the +root theta goes with the -root phi and
/// vice versa, so that A e^{i theta} + B e^{i phi} reconstructs y for
/// each pair.  Requires a > 0 and b > 0 (unchecked: the interference
/// decoder checks once per call).
struct Phase_products {
    std::array<dsp::Sample, 4> product;
    bool clamped = false; // as Phase_solutions::clamped
    double d = 0.0;       // as Phase_solutions::d
};

inline Phase_products phase_products(dsp::Sample y, double a, double b)
{
    Phase_products out;
    double d = (std::norm(y) - a * a - b * b) / (2.0 * a * b);
    if (d > 1.0) {
        d = 1.0;
        out.clamped = true;
    } else if (d < -1.0) {
        d = -1.0;
        out.clamped = true;
    }
    out.d = d;
    const double root = std::sqrt(std::max(1.0 - d * d, 0.0));
    out.product[0] = y * dsp::Sample{a + b * d, b * root};
    out.product[1] = y * dsp::Sample{b + a * d, -a * root};
    out.product[2] = y * dsp::Sample{a + b * d, -b * root};
    out.product[3] = y * dsp::Sample{b + a * d, a * root};
    return out;
}

/// Solve Eq. 2 for the two (theta, phi) pairs.  Requires a > 0 and b > 0.
Phase_solutions solve_phases(dsp::Sample y, double a, double b);

} // namespace anc
