// The SIMD backend's two contracts (util/simd.h):
//
//   1. dispatch — resolve_backend() is a pure, testable rule; the AVX2
//      lanes are only reachable when CPUID proves AVX2+FMA, the AVX-512
//      lanes additionally require the AVX-512F flag, and the
//      ANC_FORCE_SCALAR_SIMD / ANC_FORCE_AVX2_SIMD overrides step the
//      decision down.
//   2. bit-compatibility — every lane kernel equals the scalar fast
//      kernel it transcribes, element for element, bit for bit.  The
//      "ULP bound" of every kernel is therefore 0, which these tests
//      assert with exact == comparisons (through bit patterns, so
//      -0.0 vs +0.0 discrepancies cannot hide).
//
// The *_avx2 vs *_scalar comparisons run only on hardware where CPUID
// reports AVX2+FMA, and the *_avx512 comparisons only where it also
// reports AVX-512F (anywhere else the narrower backend is active and
// there is nothing to compare); the public batch API is additionally
// compared against direct fast-kernel loops on every machine, covering
// the dispatcher's block/tail seam at awkward lengths.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/cpu_features.h"
#include "util/fastmath.h"
#include "util/rng.h"

namespace anc::simd {
namespace {

bool avx2_available()
{
    return cpu_features().avx2 && cpu_features().fma;
}

bool avx512_available()
{
    return avx2_available() && cpu_features().avx512f;
}

void expect_same_bits(double a, double b, const char* what, std::size_t i)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << what << " lane " << i << ": " << a << " vs " << b;
}

std::vector<double> random_range(std::size_t count, double lo, double hi,
                                 std::uint64_t seed)
{
    Pcg32 rng{seed, 11};
    std::vector<double> out(count);
    for (double& v : out)
        v = lo + (hi - lo) * rng.next_double();
    return out;
}

TEST(SimdBackend, ResolveBackendRule)
{
    // (avx2, fma, avx512f, force_scalar, force_avx2)
    EXPECT_EQ(resolve_backend(true, true, false, false, false), Backend::avx2);
    EXPECT_EQ(resolve_backend(true, true, true, false, false), Backend::avx512);
    EXPECT_EQ(resolve_backend(true, true, true, false, true), Backend::avx2);
    EXPECT_EQ(resolve_backend(true, true, true, true, false), Backend::scalar);
    // force_scalar beats force_avx2 when both overrides are set.
    EXPECT_EQ(resolve_backend(true, true, true, true, true), Backend::scalar);
    EXPECT_EQ(resolve_backend(true, true, false, true, false), Backend::scalar);
    EXPECT_EQ(resolve_backend(false, true, false, false, false), Backend::scalar);
    EXPECT_EQ(resolve_backend(true, false, false, false, false), Backend::scalar);
    // force_avx2 never upgrades a machine that resolves to scalar.
    EXPECT_EQ(resolve_backend(false, false, false, false, true), Backend::scalar);
    EXPECT_EQ(resolve_backend(false, false, false, false, false), Backend::scalar);
    EXPECT_STREQ(to_string(Backend::avx512), "avx512");
    EXPECT_STREQ(to_string(Backend::avx2), "avx2");
    EXPECT_STREQ(to_string(Backend::scalar), "scalar");
}

TEST(SimdBackend, ActiveBackendMatchesCpuAndOverride)
{
    // The process-wide decision must agree with the pure rule applied to
    // this process's actual CPUID and environment.
    EXPECT_EQ(active_backend(),
              resolve_backend(cpu_features().avx2, cpu_features().fma,
                              cpu_features().avx512f, force_scalar_from_env(),
                              force_avx2_from_env()));
    EXPECT_EQ(kernels_active(), active_backend() != Backend::scalar);
}

TEST(SimdBackend, CpuFeatureImplications)
{
    // CPUID sanity: AVX2 without AVX (or AVX-512F without AVX2) would
    // mean the probe mis-read a leaf.
    if (cpu_features().avx2) {
        EXPECT_TRUE(cpu_features().avx);
    }
    if (cpu_features().avx512f) {
        EXPECT_TRUE(cpu_features().avx2);
    }
}

// ----------------------------------------------- batch API == fast loop
// Awkward lengths exercise the AVX2 block / scalar tail seam.

constexpr std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 31, 100, 1023};

TEST(SimdKernels, Atan2BatchMatchesFastAtan2)
{
    for (const std::size_t n : lengths) {
        const std::vector<double> y = random_range(n, -10.0, 10.0, 0xA1);
        const std::vector<double> x = random_range(n, -10.0, 10.0, 0xA2);
        std::vector<double> out(n);
        atan2_batch(y.data(), x.data(), out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            expect_same_bits(out[i], fast_atan2(y[i], x[i]), "atan2", i);
    }
}

TEST(SimdKernels, Atan2BatchEdgeCases)
{
    // Quadrants, axes, and signed zeros — where octant assembly and
    // copysign must match std::atan2's conventions exactly.
    const std::vector<double> y = {0.0,  -0.0, 0.0,  -0.0, 1.0, -1.0,
                                   1.0,  -1.0, 5.0,  -5.0, 0.0, -0.0,
                                   1e-9, 1e9,  -1e9, 2.5};
    const std::vector<double> x = {0.0,  0.0,  -0.0, -0.0, 0.0,  0.0,
                                   1.0,  1.0,  -3.0, -3.0, 7.0,  7.0,
                                   1e9,  1e-9, 1e-9, -2.5};
    std::vector<double> out(y.size());
    atan2_batch(y.data(), x.data(), out.data(), y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        expect_same_bits(out[i], fast_atan2(y[i], x[i]), "atan2-edge", i);
}

TEST(SimdKernels, SincosBatchMatchesFastSincos)
{
    for (const std::size_t n : lengths) {
        const std::vector<double> angles = random_range(n, -1000.0, 1000.0, 0xB1);
        std::vector<double> s(n);
        std::vector<double> c(n);
        sincos_batch(angles.data(), s.data(), c.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            double se = 0.0;
            double ce = 0.0;
            fast_sincos(angles[i], se, ce);
            expect_same_bits(s[i], se, "sin", i);
            expect_same_bits(c[i], ce, "cos", i);
        }
    }
}

TEST(SimdKernels, LogBatchMatchesFastLog)
{
    for (const std::size_t n : lengths) {
        std::vector<double> x = random_range(n, 1e-12, 4.0, 0xC1);
        std::vector<double> out(n);
        log_batch(x.data(), out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            expect_same_bits(out[i], fast_log(x[i]), "log", i);
    }
}

TEST(SimdKernels, PolarBatchMatchesFastLoop)
{
    for (const std::size_t n : lengths) {
        const std::vector<double> angles = random_range(n, -8.0, 8.0, 0xD1);
        std::vector<double> out(2 * n);
        polar_batch(angles.data(), 0.83, out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            double c = 0.0;
            fast_sincos(angles[i], s, c);
            expect_same_bits(out[2 * i], 0.83 * c, "polar-re", i);
            expect_same_bits(out[2 * i + 1], 0.83 * s, "polar-im", i);
        }
    }
}

// --------------------------------------------- avx2 vs scalar directly
// On AVX2 hardware, compare the two backend implementations head to
// head — this is the lane-vs-scalar proof that also stands in for the
// "native vs ANC_FORCE_SCALAR_SIMD dispatch" bit-identity claim (a
// forced-scalar process runs exactly detail::*_scalar).

TEST(SimdKernels, Avx2LanesEqualScalarKernels)
{
    if (!avx2_available())
        GTEST_SKIP() << "CPU lacks AVX2+FMA; backend is scalar-only here";
    const std::size_t n = 4096; // multiple of 4: pure lane coverage
    const std::vector<double> y = random_range(n, -20.0, 20.0, 0xE1);
    const std::vector<double> x = random_range(n, -20.0, 20.0, 0xE2);
    const std::vector<double> angles = random_range(n, -2000.0, 2000.0, 0xE3);
    const std::vector<double> uniforms = random_range(n, 1e-12, 2.0, 0xE4);

    std::vector<double> a1(n), a2(n);
    detail::atan2_batch_avx2(y.data(), x.data(), a1.data(), n);
    detail::atan2_batch_scalar(y.data(), x.data(), a2.data(), n);
    std::vector<double> s1(n), c1(n), s2(n), c2(n);
    detail::sincos_batch_avx2(angles.data(), s1.data(), c1.data(), n);
    detail::sincos_batch_scalar(angles.data(), s2.data(), c2.data(), n);
    std::vector<double> l1(n), l2(n);
    detail::log_batch_avx2(uniforms.data(), l1.data(), n);
    detail::log_batch_scalar(uniforms.data(), l2.data(), n);
    std::vector<double> p1(2 * n), p2(2 * n);
    detail::polar_batch_avx2(angles.data(), 0.83, p1.data(), n);
    detail::polar_batch_scalar(angles.data(), 0.83, p2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        expect_same_bits(a1[i], a2[i], "atan2 avx2-vs-scalar", i);
        expect_same_bits(s1[i], s2[i], "sin avx2-vs-scalar", i);
        expect_same_bits(c1[i], c2[i], "cos avx2-vs-scalar", i);
        expect_same_bits(l1[i], l2[i], "log avx2-vs-scalar", i);
        expect_same_bits(p1[2 * i], p2[2 * i], "polar-re avx2-vs-scalar", i);
        expect_same_bits(p1[2 * i + 1], p2[2 * i + 1], "polar-im avx2-vs-scalar", i);
    }
}

TEST(SimdKernels, Avx2DecoderKernelsEqualScalar)
{
    if (!avx2_available())
        GTEST_SKIP() << "CPU lacks AVX2+FMA; backend is scalar-only here";
    const std::size_t count = 512;
    const std::vector<double> samples = random_range(2 * count, -3.0, 3.0, 0xF1);
    const double a = 0.95;
    const double b = 0.88;

    std::vector<double> tp1(count), tm1(count), pm1(count), pp1(count);
    std::vector<double> tp2(count), tm2(count), pm2(count), pp2(count);
    detail::anc_candidates_batch_avx2(samples.data(), count, a, b, tp1.data(),
                                      tm1.data(), pm1.data(), pp1.data());
    detail::anc_candidates_batch_scalar(samples.data(), count, a, b, tp2.data(),
                                        tm2.data(), pm2.data(), pp2.data());
    for (std::size_t i = 0; i < count; ++i) {
        expect_same_bits(tp1[i], tp2[i], "theta+", i);
        expect_same_bits(tm1[i], tm2[i], "theta-", i);
        expect_same_bits(pm1[i], pm2[i], "phi-", i);
        expect_same_bits(pp1[i], pp2[i], "phi+", i);
    }

    const std::size_t transitions = count - 4; // multiple of 4
    std::vector<double> known(transitions);
    Pcg32 rng{0xF2, 3};
    for (double& k : known)
        k = rng.next_bernoulli(0.5) ? 1.5707963267948966 : -1.5707963267948966;
    std::vector<double> f1(transitions), e1(transitions);
    std::vector<double> f2(transitions), e2(transitions);
    detail::anc_select_batch_avx2(tp1.data(), tm1.data(), pm1.data(), pp1.data(),
                                  known.data(), transitions, f1.data(), e1.data());
    detail::anc_select_batch_scalar(tp2.data(), tm2.data(), pm2.data(), pp2.data(),
                                    known.data(), transitions, f2.data(),
                                    e2.data());
    std::vector<double> d1(transitions), d2(transitions);
    detail::diff_arg_batch_avx2(samples.data(), transitions, d1.data());
    detail::diff_arg_batch_scalar(samples.data(), transitions, d2.data());
    for (std::size_t i = 0; i < transitions; ++i) {
        expect_same_bits(f1[i], f2[i], "selected phi", i);
        expect_same_bits(e1[i], e2[i], "selected error", i);
        expect_same_bits(d1[i], d2[i], "diff arg", i);
    }
}

// The channel accumulators (channel/link.cpp) add into an existing
// buffer, so every comparison starts from the same nonzero accumulator.
using Rotor_kernel = void (*)(const double*, double*, std::size_t, double, double);
using Cmul_kernel = void (*)(const double*, const double*, double*, std::size_t);

void expect_accumulators_equal_scalar(Rotor_kernel rotor, Cmul_kernel cmul,
                                      std::size_t samples, const char* what)
{
    const std::vector<double> in = random_range(2 * samples, -2.0, 2.0, 0x7A1);
    const std::vector<double> rotors = random_range(2 * samples, -1.0, 1.0, 0x7A2);
    const std::vector<double> start = random_range(2 * samples, -0.5, 0.5, 0x7A3);
    std::vector<double> lanes = start;
    std::vector<double> scalar = start;
    rotor(in.data(), lanes.data(), samples, 0.61, -0.79);
    detail::rotor_accumulate_scalar(in.data(), scalar.data(), samples, 0.61, -0.79);
    for (std::size_t i = 0; i < 2 * samples; ++i)
        expect_same_bits(lanes[i], scalar[i], what, i);
    lanes = start;
    scalar = start;
    cmul(in.data(), rotors.data(), lanes.data(), samples);
    detail::cmul_accumulate_scalar(in.data(), rotors.data(), scalar.data(), samples);
    for (std::size_t i = 0; i < 2 * samples; ++i)
        expect_same_bits(lanes[i], scalar[i], what, i);
}

TEST(SimdKernels, Avx2AccumulatorsEqualScalar)
{
    if (!avx2_available())
        GTEST_SKIP() << "CPU lacks AVX2+FMA; backend is scalar-only here";
    expect_accumulators_equal_scalar(detail::rotor_accumulate_avx2,
                                     detail::cmul_accumulate_avx2, 2048,
                                     "accumulate avx2-vs-scalar");
}

TEST(SimdKernels, AccumulatorsMatchScalarAcrossTailSeam)
{
    // The public entry points on whatever backend this process resolves
    // to, at lengths that leave every possible tail behind the blocks.
    for (const std::size_t samples : {0, 1, 3, 5, 8, 31, 1023})
        expect_accumulators_equal_scalar(rotor_accumulate, cmul_accumulate, samples,
                                         "accumulate dispatched-vs-scalar");
}

// ------------------------------------------- avx512 vs scalar directly
// On AVX-512F hardware, the 8-wide lanes must equal the scalar kernels
// bit for bit too (and, transitively, the AVX2 lanes).  These mirror
// the avx2 comparisons at widths that are multiples of 8 so the 512-bit
// paths get pure lane coverage.

TEST(SimdKernels, Avx512LanesEqualScalarKernels)
{
    if (!avx512_available())
        GTEST_SKIP() << "CPU lacks AVX-512F; widest backend here is avx2";
    const std::size_t n = 4096; // multiple of 8: pure lane coverage
    const std::vector<double> y = random_range(n, -20.0, 20.0, 0x511);
    const std::vector<double> x = random_range(n, -20.0, 20.0, 0x512);
    const std::vector<double> angles = random_range(n, -2000.0, 2000.0, 0x513);
    const std::vector<double> uniforms = random_range(n, 1e-12, 2.0, 0x514);

    std::vector<double> a1(n), a2(n);
    detail::atan2_batch_avx512(y.data(), x.data(), a1.data(), n);
    detail::atan2_batch_scalar(y.data(), x.data(), a2.data(), n);
    std::vector<double> s1(n), c1(n), s2(n), c2(n);
    detail::sincos_batch_avx512(angles.data(), s1.data(), c1.data(), n);
    detail::sincos_batch_scalar(angles.data(), s2.data(), c2.data(), n);
    std::vector<double> l1(n), l2(n);
    detail::log_batch_avx512(uniforms.data(), l1.data(), n);
    detail::log_batch_scalar(uniforms.data(), l2.data(), n);
    std::vector<double> p1(2 * n), p2(2 * n);
    detail::polar_batch_avx512(angles.data(), 0.83, p1.data(), n);
    detail::polar_batch_scalar(angles.data(), 0.83, p2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        expect_same_bits(a1[i], a2[i], "atan2 avx512-vs-scalar", i);
        expect_same_bits(s1[i], s2[i], "sin avx512-vs-scalar", i);
        expect_same_bits(c1[i], c2[i], "cos avx512-vs-scalar", i);
        expect_same_bits(l1[i], l2[i], "log avx512-vs-scalar", i);
        expect_same_bits(p1[2 * i], p2[2 * i], "polar-re avx512-vs-scalar", i);
        expect_same_bits(p1[2 * i + 1], p2[2 * i + 1],
                         "polar-im avx512-vs-scalar", i);
    }
}

TEST(SimdKernels, Avx512DecoderKernelsEqualScalar)
{
    if (!avx512_available())
        GTEST_SKIP() << "CPU lacks AVX-512F; widest backend here is avx2";
    const std::size_t count = 512;
    const std::vector<double> samples = random_range(2 * count, -3.0, 3.0, 0x521);
    const double a = 0.95;
    const double b = 0.88;

    std::vector<double> tp1(count), tm1(count), pm1(count), pp1(count);
    std::vector<double> tp2(count), tm2(count), pm2(count), pp2(count);
    detail::anc_candidates_batch_avx512(samples.data(), count, a, b, tp1.data(),
                                        tm1.data(), pm1.data(), pp1.data());
    detail::anc_candidates_batch_scalar(samples.data(), count, a, b, tp2.data(),
                                        tm2.data(), pm2.data(), pp2.data());
    for (std::size_t i = 0; i < count; ++i) {
        expect_same_bits(tp1[i], tp2[i], "theta+ avx512", i);
        expect_same_bits(tm1[i], tm2[i], "theta- avx512", i);
        expect_same_bits(pm1[i], pm2[i], "phi- avx512", i);
        expect_same_bits(pp1[i], pp2[i], "phi+ avx512", i);
    }

    const std::size_t transitions = count - 8; // multiple of 8
    std::vector<double> known(transitions);
    Pcg32 rng{0x522, 3};
    for (double& k : known)
        k = rng.next_bernoulli(0.5) ? 1.5707963267948966 : -1.5707963267948966;
    std::vector<double> f1(transitions), e1(transitions);
    std::vector<double> f2(transitions), e2(transitions);
    detail::anc_select_batch_avx512(tp1.data(), tm1.data(), pm1.data(), pp1.data(),
                                    known.data(), transitions, f1.data(),
                                    e1.data());
    detail::anc_select_batch_scalar(tp2.data(), tm2.data(), pm2.data(), pp2.data(),
                                    known.data(), transitions, f2.data(),
                                    e2.data());
    std::vector<double> d1(transitions), d2(transitions);
    detail::diff_arg_batch_avx512(samples.data(), transitions, d1.data());
    detail::diff_arg_batch_scalar(samples.data(), transitions, d2.data());
    for (std::size_t i = 0; i < transitions; ++i) {
        expect_same_bits(f1[i], f2[i], "selected phi avx512", i);
        expect_same_bits(e1[i], e2[i], "selected error avx512", i);
        expect_same_bits(d1[i], d2[i], "diff arg avx512", i);
    }
}

TEST(SimdKernels, Avx512AccumulatorsEqualScalar)
{
    if (!avx512_available())
        GTEST_SKIP() << "CPU lacks AVX-512F; widest backend here is avx2";
    expect_accumulators_equal_scalar(detail::rotor_accumulate_avx512,
                                     detail::cmul_accumulate_avx512, 2048,
                                     "accumulate avx512-vs-scalar");
}

TEST(SimdKernels, Avx512CounterNormalEqualsAvx2)
{
    if (!avx512_available())
        GTEST_SKIP() << "CPU lacks AVX-512F; widest backend here is avx2";
    // The two lane widths must emit the identical z stream for identical
    // (key, counter) words.  Keys are passed directly so this holds for
    // arbitrary key material, not just Counter_normal-derived keys (the
    // public fill_simd path is covered by tests/util/counter_normal_*).
    const std::uint64_t key_a = 0x0123456789abcdefULL;
    const std::uint64_t key_b = 0xfedcba9876543210ULL;
    const std::size_t count = 256; // multiple of 16
    std::vector<double> wide(count), narrow(count);
    detail::counter_normal_fill_avx512(key_a, key_b, 41, wide.data(), count);
    detail::counter_normal_fill_avx2(key_a, key_b, 41, narrow.data(), count);
    for (std::size_t i = 0; i < count; ++i)
        expect_same_bits(wide[i], narrow[i], "counter-normal fill avx512", i);

    std::vector<double> acc_wide(count, 0.25), acc_narrow(count, 0.25);
    detail::counter_normal_add_scaled_avx512(key_a, key_b, 41, 0.7,
                                             acc_wide.data(), count);
    detail::counter_normal_add_scaled_avx2(key_a, key_b, 41, 0.7,
                                           acc_narrow.data(), count);
    for (std::size_t i = 0; i < count; ++i)
        expect_same_bits(acc_wide[i], acc_narrow[i],
                         "counter-normal add_scaled avx512", i);
}

TEST(SimdKernels, LaneKernelsStayWithinFastErrorBounds)
{
    // Belt and braces on top of bit-equality: the lane kernels inherit
    // the scalar fast kernels' measured error bounds against libm
    // (tests/util/fastmath_test.cpp).  A 10x slack keeps this from
    // duplicating that test's tight calibration while still catching a
    // wrong-polynomial regression immediately.
    const std::size_t n = 20000;
    const std::vector<double> y = random_range(n, -5.0, 5.0, 0x91);
    const std::vector<double> x = random_range(n, -5.0, 5.0, 0x92);
    std::vector<double> out(n);
    atan2_batch(y.data(), x.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_NEAR(out[i], std::atan2(y[i], x[i]), 1e-10);

    const std::vector<double> angles = random_range(n, -100.0, 100.0, 0x93);
    std::vector<double> s(n);
    std::vector<double> c(n);
    sincos_batch(angles.data(), s.data(), c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(s[i], std::sin(angles[i]), 1e-12);
        ASSERT_NEAR(c[i], std::cos(angles[i]), 1e-12);
    }
}

} // namespace
} // namespace anc::simd
