// The AVX-512F instantiation of the kernels in util/simd_kernels.inl:
// the Lanes<8> trait, eight doubles per __m512d, and the one exported
// symbol, detail::avx512_kernels.  This is the only translation unit
// compiled with -mavx512f (and -ffp-contract=off); the weak-symbol rule
// in simd_kernels.inl applies.
//
// The dispatch rule gates on the F flag alone, so nothing here may need
// DQ/BW/VL: bitwise FP logic goes through the epi64 domain
// (_mm512_and_pd and friends are DQ), compares produce __mmask8 and
// selects are mask blends / zero-masking moves, and vaddsubpd — which
// has no 512-bit form — is a sign-bit XOR on the even lanes followed by
// one add (exact negation: a − b ≡ a + (−b) bitwise).

#include "util/simd.h"

// x86-64 only, matching the CMake guard that adds -mavx512f for this
// file (cpu_features reports no AVX-512 elsewhere, and kernels_for()
// never returns this table there).
#if defined(__x86_64__)

#include <immintrin.h>

#include "util/simd_kernels.inl"

namespace anc::simd::detail {

namespace {

template <>
struct Lanes<8> {
    using V = __m512d;
    using I = __m512i;
    using M = __mmask8;
    using F = __m512;
    static constexpr std::size_t width = 8;

    static V set1(double x) { return _mm512_set1_pd(x); }
    static V load(const double* p) { return _mm512_loadu_pd(p); }
    static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
    static V sqrt(V v) { return _mm512_sqrt_pd(v); }
    static V min(V a, V b) { return _mm512_min_pd(a, b); }
    static V max(V a, V b) { return _mm512_max_pd(a, b); }

    static V bit_and(V a, V b) { return as_pd(_mm512_and_epi64(as_i(a), as_i(b))); }
    static V bit_andnot(V a, V b) { return as_pd(_mm512_andnot_epi64(as_i(a), as_i(b))); }
    static V bit_or(V a, V b) { return as_pd(_mm512_or_epi64(as_i(a), as_i(b))); }
    static V bit_xor(V a, V b) { return as_pd(_mm512_xor_epi64(as_i(a), as_i(b))); }

    static M lt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
    static M le(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
    static M gt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
    static M eq(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
    static M ne(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ); }
    static V blend(M m, V a, V b) { return _mm512_mask_blend_pd(m, a, b); }
    static V zero_unless(M m, V v) { return _mm512_maskz_mov_pd(m, v); }
    static unsigned bits(M m) { return m; }
    static void store_flag_bytes(unsigned flags, std::uint8_t* out)
    {
        // 0/1 qwords narrowed to bytes by vpmovqb (AVX-512F).
        const __m512i ones = _mm512_maskz_set1_epi64(static_cast<M>(flags), 1);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out), _mm512_cvtepi64_epi8(ones));
    }

    static I set1_i(std::uint64_t x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
    static I and_i(I a, I b) { return _mm512_and_epi64(a, b); }
    static I or_i(I a, I b) { return _mm512_or_epi64(a, b); }
    static I xor_i(I a, I b) { return _mm512_xor_epi64(a, b); }
    static M gt_i(I a, I b) { return _mm512_cmpgt_epi64_mask(a, b); }
    static I as_i(V v) { return _mm512_castpd_si512(v); }
    static V as_pd(I v) { return _mm512_castsi512_pd(v); }

    static I set1_u32(std::uint32_t x) { return _mm512_set1_epi32(static_cast<int>(x)); }
    static I load_u32(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
    static I add_u32(I a, I b) { return _mm512_add_epi32(a, b); }
    static I sub_u32(I a, I b) { return _mm512_sub_epi32(a, b); }
    static I srli_u32(I v, unsigned bits) { return _mm512_srli_epi32(v, bits); }
    static I slli_u32(I v, unsigned bits) { return _mm512_slli_epi32(v, bits); }
    static I mullo_u32(I a, I b) { return _mm512_mullo_epi32(a, b); }

    static F sqrt_f(F v) { return _mm512_sqrt_ps(v); }
    static F to_f(I v) { return _mm512_cvtepi32_ps(v); }
    static I f_bits(F v) { return _mm512_castps_si512(v); }
    static F bits_f(I v) { return _mm512_castsi512_ps(v); }
    static void widen(F f, V& lo, V& hi)
    {
        // The high half through the F-only 256-bit extract (vextractf64x4).
        lo = _mm512_cvtps_pd(_mm512_castps512_ps256(f));
        hi = _mm512_cvtps_pd(
            _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(f), 1)));
    }

    static void interleave(V a, V b, V& out0, V& out1)
    {
        out0 = _mm512_permutex2var_pd(a, _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0), b);
        out1 = _mm512_permutex2var_pd(a, _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4), b);
    }
    static void deinterleave(const double* p, V& re, V& im)
    {
        const V v0 = _mm512_loadu_pd(p);     // [re0,im0,...,re3,im3]
        const V v1 = _mm512_loadu_pd(p + 8); // [re4,im4,...,re7,im7]
        re = _mm512_permutex2var_pd(v0, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), v1);
        im = _mm512_permutex2var_pd(v0, _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1), v1);
    }
    static V swap_pairs(V v) { return _mm512_permute_pd(v, 0b01010101); }
    static V dup_re(V v) { return _mm512_movedup_pd(v); }
    static V dup_im(V v) { return _mm512_permute_pd(v, 0b11111111); }
    static V addsub(V a, V b)
    {
        return a + bit_xor(b, _mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0));
    }
    static V pair_sums(V a, V b) { return _mm512_unpacklo_pd(a, b) + _mm512_unpackhi_pd(a, b); }
    static V fold_blocks(const V (&t)[4])
    {
        // 128-bit lane r of t[n] holds t_r of blocks 2n and 2n + 1.
        // Lanes 0 and 2, then 1 and 3, of two such vectors add to
        // [u0, u0, u1, u1] of four blocks; the last fold adds u0 + u1.
        const auto fold = [](V a, V b) {
            return _mm512_shuffle_f64x2(a, b, 0x44) + _mm512_shuffle_f64x2(a, b, 0xEE);
        };
        const V u0 = fold(t[0], t[1]);
        const V u1 = fold(t[2], t[3]);
        return _mm512_shuffle_f64x2(u0, u1, 0x88) + _mm512_shuffle_f64x2(u0, u1, 0xDD);
    }
};

} // namespace

constinit const Kernel_table avx512_kernels = lane_table<Lanes<8>>();

} // namespace anc::simd::detail

#endif
