// The AVX2+FMA instantiation of the lane kernels (util/simd_kernels.inl):
// the Lanes<4> trait, four doubles per __m256d, and the exported
// detail::*_avx2 entry points — plus the bit-domain pilot-scan popcnt
// kernels.  This is the only translation unit compiled with -mavx2 -mfma
// (and -ffp-contract=off); the weak-symbol rule in simd_kernels.inl
// applies.  FMA is required in the target set although the value chains
// never fuse: libm's scalar tail calls resolve to the hardware fma via
// IFUNC, and the forced-scalar fallback must match it.

#include "util/simd.h"

// x86-64 only, matching the CMake guard that adds -mavx2 -mfma for this
// file: a 32-bit x86 build would take this branch without those flags
// and fail on every intrinsic (cpu_features reports no AVX2 there
// anyway, so the stubs in simd.cpp are the correct behavior).
#if defined(__x86_64__)

#include <immintrin.h>

#include "util/simd_kernels.inl"

namespace anc::simd::detail {

namespace {

template <>
struct Lanes<4> {
    using V = __m256d;
    using I = __m256i;
    using M = __m256d; ///< all-ones / all-zeros per lane
    static constexpr std::size_t width = 4;

    static V set1(double x) { return _mm256_set1_pd(x); }
    static V load(const double* p) { return _mm256_loadu_pd(p); }
    static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
    static V sqrt(V v) { return _mm256_sqrt_pd(v); }
    static V min(V a, V b) { return _mm256_min_pd(a, b); }
    static V max(V a, V b) { return _mm256_max_pd(a, b); }

    static V bit_and(V a, V b) { return _mm256_and_pd(a, b); }
    static V bit_andnot(V a, V b) { return _mm256_andnot_pd(a, b); }
    static V bit_or(V a, V b) { return _mm256_or_pd(a, b); }
    static V bit_xor(V a, V b) { return _mm256_xor_pd(a, b); }

    static M lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
    static M le(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
    static M gt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
    static M eq(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
    static M ne(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ); }
    static V blend(M m, V a, V b) { return _mm256_blendv_pd(a, b, m); }
    static V zero_unless(M m, V v) { return _mm256_and_pd(m, v); }
    static unsigned bits(M m) { return static_cast<unsigned>(_mm256_movemask_pd(m)); }
    static void store_flag_bytes(unsigned flags, std::uint8_t* out)
    {
        // Flag k moves to bit 8k: the copies flags << 7k occupy disjoint
        // bit ranges, so the multiply carries nothing.
        const std::uint32_t bytes = ((flags & 0xfu) * 0x00204081u) & 0x01010101u;
        __builtin_memcpy(out, &bytes, sizeof bytes);
    }

    static I set1_i(std::uint64_t x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }
    static I load_i(const std::uint64_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static I add_i(I a, I b) { return _mm256_add_epi64(a, b); }
    static I sub_i(I a, I b) { return _mm256_sub_epi64(a, b); }
    static I and_i(I a, I b) { return _mm256_and_si256(a, b); }
    static I or_i(I a, I b) { return _mm256_or_si256(a, b); }
    static I xor_i(I a, I b) { return _mm256_xor_si256(a, b); }
    static I srli(I v, int bits) { return _mm256_srli_epi64(v, bits); }
    static I slli(I v, int bits) { return _mm256_slli_epi64(v, bits); }
    static I mul_epu32(I a, I b) { return _mm256_mul_epu32(a, b); }
    static M eq_i(I a, I b) { return _mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b)); }
    static M gt_i(I a, I b) { return _mm256_castsi256_pd(_mm256_cmpgt_epi64(a, b)); }
    static I as_i(V v) { return _mm256_castpd_si256(v); }
    static V as_pd(I v) { return _mm256_castsi256_pd(v); }

    static void interleave(V a, V b, V& out0, V& out1)
    {
        const V lo = _mm256_unpacklo_pd(a, b); // [a0,b0 | a2,b2]
        const V hi = _mm256_unpackhi_pd(a, b); // [a1,b1 | a3,b3]
        out0 = _mm256_permute2f128_pd(lo, hi, 0x20);
        out1 = _mm256_permute2f128_pd(lo, hi, 0x31);
    }
    static void deinterleave(const double* p, V& re, V& im)
    {
        const V v0 = _mm256_loadu_pd(p);     // [re0,im0,re1,im1]
        const V v1 = _mm256_loadu_pd(p + 4); // [re2,im2,re3,im3]
        const V t0 = _mm256_permute2f128_pd(v0, v1, 0x20); // [re0,im0,re2,im2]
        const V t1 = _mm256_permute2f128_pd(v0, v1, 0x31); // [re1,im1,re3,im3]
        re = _mm256_unpacklo_pd(t0, t1);
        im = _mm256_unpackhi_pd(t0, t1);
    }
    static V swap_pairs(V v) { return _mm256_permute_pd(v, 0b0101); }
    static V dup_re(V v) { return _mm256_movedup_pd(v); }
    static V dup_im(V v) { return _mm256_permute_pd(v, 0b1111); }
    static V addsub(V a, V b) { return _mm256_addsub_pd(a, b); }
};

using K = Kernels<Lanes<4>>;

} // namespace

void anc_candidates_batch_avx2(const double* interleaved_samples, std::size_t count,
                               double a, double b, double* theta_plus,
                               double* theta_minus, double* phi_minus, double* phi_plus)
{
    K::anc_candidates_batch(interleaved_samples, count, a, b, theta_plus, theta_minus,
                            phi_minus, phi_plus);
}

void anc_select_batch_avx2(const double* theta_plus, const double* theta_minus,
                           const double* phi_minus, const double* phi_plus,
                           const double* known_diffs, std::size_t transitions,
                           double* phi_out, double* error_out)
{
    K::anc_select_batch(theta_plus, theta_minus, phi_minus, phi_plus, known_diffs,
                        transitions, phi_out, error_out);
}

void diff_arg_batch_avx2(const double* interleaved_samples, std::size_t transitions,
                         double* out)
{
    K::diff_arg_batch(interleaved_samples, transitions, out);
}

void counter_normal_fill_avx2(std::uint64_t key_a, std::uint64_t key_b,
                              std::uint64_t first_counter, double* out, std::size_t count)
{
    K::counter_normal_fill(key_a, key_b, first_counter, out, count);
}

void counter_normal_add_scaled_avx2(std::uint64_t key_a, std::uint64_t key_b,
                                    std::uint64_t first_counter, double scale,
                                    double* inout, std::size_t count)
{
    K::counter_normal_add_scaled(key_a, key_b, first_counter, scale, inout, count);
}

void rotor_accumulate_avx2(const double* interleaved_in, double* interleaved_acc,
                           std::size_t samples, double rotor_re, double rotor_im)
{
    K::rotor_accumulate(interleaved_in, interleaved_acc, samples, rotor_re, rotor_im);
}

void cmul_accumulate_avx2(const double* interleaved_in, const double* interleaved_rotors,
                          double* interleaved_acc, std::size_t samples)
{
    K::cmul_accumulate(interleaved_in, interleaved_rotors, interleaved_acc, samples);
}

void window_mean_mask_avx2(const double* sums, std::size_t count,
                           const Window_divisor& divisor, double threshold,
                           std::uint64_t* mask, std::size_t first)
{
    K::window_mean_mask(sums, count, divisor, threshold, mask, first);
}

double excess_variance_mask_avx2(const double* sums, const double* sum_sqs,
                                 std::size_t count, const Window_divisor& divisor,
                                 double sigma2, double threshold, double peak,
                                 std::uint64_t* mask, std::size_t first)
{
    return K::excess_variance_mask(sums, sum_sqs, count, divisor, sigma2, threshold, peak,
                                   mask, first);
}

void msk_decide_avx2(const double* interleaved_samples, std::size_t transitions,
                     std::uint8_t* bits)
{
    K::msk_decide(interleaved_samples, transitions, bits);
}

// --------------------------------------- bit-domain pilot-scan kernels
//
// Integer-exact u64 XOR + popcount loops for phy/pilot.cpp.  They live
// in this TU only for the hardware popcnt instruction: baseline x86-64
// predates POPCNT, so std::popcount in a baseline TU compiles to a
// libgcc call per word — an order of magnitude slower than popcntq.
// -mavx2 implies -mpopcnt, and every AVX2/AVX-512 CPU has POPCNT, so
// dispatching on kernels_active() is sufficient.  __builtin_popcountll
// rather than std::popcount keeps <bit> (an inline-template header)
// out of this TU, per the weak-symbol rule.  Unlike the FP lanes there
// is no rounding to pin down: the scalar fallbacks in pilot.cpp produce
// bit-identical results on any backend.

void pilot_scan_starts_popcnt(const std::uint64_t* words,
                              const std::uint64_t* shifted,
                              const std::uint64_t* masks,
                              std::size_t stride,
                              std::size_t from,
                              std::size_t to,
                              std::size_t max_errors,
                              std::uint64_t* best_key)
{
    for (std::size_t start = from; start <= to; ++start) {
        const std::uint64_t* hay = words + (start >> 6);
        const std::uint64_t* copy = shifted + (start & 63) * stride;
        const std::uint64_t* mask = masks + (start & 63) * stride;
        std::size_t errors = 0;
        for (std::size_t k = 0; k < stride && errors <= max_errors; ++k)
            errors += static_cast<std::size_t>(
                __builtin_popcountll((hay[k] ^ copy[k]) & mask[k]));
        if (errors <= max_errors) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(errors) << 48) | start;
            if (key < *best_key)
                *best_key = key;
            if (errors == 0)
                break;
        }
    }
}

void pilot_scan_striped_popcnt(const std::uint64_t* words,
                               const std::uint64_t* shifted,
                               const std::uint64_t* masks,
                               std::size_t w_lo,
                               std::size_t w_hi,
                               std::size_t max_errors,
                               std::uint64_t* best_key)
{
    std::uint64_t best = *best_key;
    for (std::size_t s = 0; s < 64; ++s) {
        const std::uint64_t c0 = shifted[2 * s];
        const std::uint64_t c1 = shifted[2 * s + 1];
        const std::uint64_t m0 = masks[2 * s];
        const std::uint64_t m1 = masks[2 * s + 1];
        for (std::size_t w = w_lo; w <= w_hi; ++w) {
            const auto errors = static_cast<std::size_t>(
                                    __builtin_popcountll((words[w] ^ c0) & m0)) +
                                static_cast<std::size_t>(
                                    __builtin_popcountll((words[w + 1] ^ c1) & m1));
            if (errors <= max_errors) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(errors) << 48) | (w * 64 + s);
                best = key < best ? key : best;
            }
        }
    }
    *best_key = best;
}

} // namespace anc::simd::detail

#endif
