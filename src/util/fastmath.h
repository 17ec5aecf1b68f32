// The fast scalar atan2 kernel of the relaxed-determinism math profile
// (dsp::Math_profile::fast): the interference decoder's Eq. 7/8 phases
// and its unknown-tail demodulation run on it, through the lanes in
// util/simd.h.
//
// It is an *approximation with a proven, tested error bound* — never
// bit-identical to libm, which is exactly why the decoder dispatches on
// a Math_profile and the `exact` profile keeps calling libm (PERF.md
// "Math profiles").  It is branch-light, inline, and FMA-friendly, so
// hot loops that call it stay pipelined instead of stalling on a libm
// call:
//
//   fast_atan2   — octant reduction + a degree-12 Chebyshev fit of
//                  atan(z)/z on z ∈ [0,1] (max abs error 5.9e-12 rad on
//                  the kernel; ≲ 1e-11 rad end to end).  Quadrant and
//                  signed-zero behavior match std::atan2.
//
// The fast profile's other seam, counter-based noise, has its own
// noise-grade log and sin/cos kernels in util/rng.h.
//
// tests/util/fastmath_test.cpp measures the bound against libm on dense
// + random sweeps; the statistical-corridor tests validate its
// end-to-end effect on decoding metrics.

#pragma once

#include <cmath>

namespace anc {

/// atan2(y, x) with std::atan2's quadrant and signed-zero conventions.
/// Max abs error ≲ 1e-11 rad over the finite doubles — six orders of
/// magnitude below the receiver's smallest phase decision margin (±π/4),
/// and three orders below the phase jitter of a 25 dB-SNR sample.
inline double fast_atan2(double y, double x)
{
    // Degree-12 Chebyshev interpolation of atan(z)/z on z^2 in [0,1]
    // (kernel max error 5.9e-12; the octant assembly adds ~1 ulp).
    constexpr double c[] = {
        9.99999999988738120e-01,  -3.33333329516572185e-01,
        1.99999783362170863e-01,  -1.42852256081602597e-01,
        1.11053067324246468e-01,  -9.04917909372005280e-02,
        7.49526237809320373e-02,  -6.02219638791359271e-02,
        4.36465894423390538e-02,  -2.60059959770320183e-02,
        1.14276332769563185e-02,  -3.19542524056683729e-03,
        4.19227860083381837e-04,
    };
    constexpr double half_pi = 1.57079632679489661923;
    constexpr double pi = 3.14159265358979323846;

    const double ax = std::fabs(x);
    const double ay = std::fabs(y);
    // min/max octant fold — compiles to minsd/maxsd, no data-dependent
    // branch (the operand ordering is ~random in the decoder's loops).
    const double num = ax < ay ? ax : ay;
    const double den = ax < ay ? ay : ax;
    const double z = den == 0.0 ? 0.0 : num / den; // both zero -> angle 0 or pi
    const double t = z * z;
    // Estrin evaluation: ~4 dependent multiply-add levels instead of
    // Horner's 12, so the out-of-order core overlaps neighboring atan2
    // calls (the phase solver issues three per sample).
    const double t2 = t * t;
    const double t4 = t2 * t2;
    const double t8 = t4 * t4;
    const double b0 = c[0] + c[1] * t;
    const double b1 = c[2] + c[3] * t;
    const double b2 = c[4] + c[5] * t;
    const double b3 = c[6] + c[7] * t;
    const double b4 = c[8] + c[9] * t;
    const double b5 = c[10] + c[11] * t;
    const double d0 = b0 + b1 * t2;
    const double d1 = b2 + b3 * t2;
    const double d2 = b4 + b5 * t2;
    const double acc = (d0 + d1 * t4) + (d2 + c[12] * t4) * t8;
    double angle = z * acc;          // atan on the first octant, [0, pi/4]
    angle = ax < ay ? half_pi - angle : angle; // first quadrant
    angle = std::signbit(x) ? pi - angle : angle; // left half-plane (x == -0.0 too)
    return std::copysign(angle, y);  // lower half-plane / signed zero
}

} // namespace anc
