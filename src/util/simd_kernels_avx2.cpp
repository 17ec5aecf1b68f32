// The AVX2+FMA instantiation of the kernels in util/simd_kernels.inl:
// the Lanes<4> trait, four doubles per __m256d, and the one exported
// symbol, detail::avx2_kernels (the pilot scans run on hardware popcnt
// here).  This is the only translation unit compiled with -mavx2 -mfma
// (and -ffp-contract=off); the weak-symbol rule in simd_kernels.inl
// applies.  FMA is required in the target set although the value chains
// never fuse: libm's scalar tail calls resolve to the hardware fma via
// IFUNC, and the forced-scalar fallback must match it.

#include "util/simd.h"

// x86-64 only, matching the CMake guard that adds -mavx2 -mfma for this
// file: a 32-bit x86 build would take this branch without those flags
// and fail on every intrinsic (cpu_features reports no AVX2 there
// anyway, and kernels_for() never returns this table).
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

} // namespace

constinit const Kernel_table avx2_kernels = lane_table<Lanes<4>>();

} // namespace anc::simd::detail

#endif
