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

#include <array>

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

/// Solve Eq. 2 for the two (theta, phi) pairs.  Requires a > 0 and b > 0.
Phase_solutions solve_phases(dsp::Sample y, double a, double b);

} // namespace anc
