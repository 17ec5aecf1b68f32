#include "core/phase_solver.h"

#include <stdexcept>

namespace anc {

Phase_solutions solve_phases(dsp::Sample y, double a, double b)
{
    if (!(a > 0.0) || !(b > 0.0))
        throw std::invalid_argument{"solve_phases: amplitudes must be positive"};

    const Phase_products products = phase_products(y, a, b);
    Phase_solutions out;
    out.clamped = products.clamped;
    out.d = products.d;
    out.pair[0].theta = std::arg(products.product[0]);
    out.pair[0].phi = std::arg(products.product[1]);
    out.pair[1].theta = std::arg(products.product[2]);
    out.pair[1].phi = std::arg(products.product[3]);
    return out;
}

} // namespace anc
