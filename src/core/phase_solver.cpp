#include "core/phase_solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace anc {

Phase_solutions solve_phases(dsp::Sample y, double a, double b)
{
    if (!(a > 0.0) || !(b > 0.0))
        throw std::invalid_argument{"solve_phases: amplitudes must be positive"};

    Phase_solutions out;
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

    // Eq. 3 / Eq. 4, both sign choices.  Solutions pair crosswise: the
    // +root theta goes with the -root phi and vice versa, so that
    // A e^{i theta} + B e^{i phi} reconstructs y for each pair.
    const dsp::Sample theta_factor_plus{a + b * d, b * root};
    const dsp::Sample theta_factor_minus{a + b * d, -b * root};
    const dsp::Sample phi_factor_minus{b + a * d, -a * root};
    const dsp::Sample phi_factor_plus{b + a * d, a * root};

    out.pair[0].theta = std::arg(y * theta_factor_plus);
    out.pair[0].phi = std::arg(y * phi_factor_minus);
    out.pair[1].theta = std::arg(y * theta_factor_minus);
    out.pair[1].phi = std::arg(y * phi_factor_plus);
    return out;
}

} // namespace anc
