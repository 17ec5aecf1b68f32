// Deterministic pseudo-random number generation for the whole library.
//
// Every stochastic component in this reproduction (noise, payload bits,
// jitter, channel phases) draws from a seeded Pcg32 stream so that every
// experiment is reproducible bit-for-bit.  PCG32 (O'Neill, 2014) is small,
// fast, and statistically far better than std::minstd_rand while being
// simpler to reason about than std::mt19937.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <numbers>

namespace anc {

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
/// Used wherever a seed must be derived from (base, counter) pairs —
/// e.g. the sweep engine's per-task seeds — so that nearby counters
/// yield statistically unrelated Pcg32 streams.  Inline: the fast
/// profile's counter-based noise evaluates two of these per sample pair.
inline std::uint64_t splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30u)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27u)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31u);
}

/// Derive an independent seed from a base seed and an index.
/// Deterministic, and distinct indices never collide for a fixed base
/// (the underlying mix is a bijection of base + f(index)).
inline std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index)
{
    // Advance the SplitMix64 sequence seeded at `base` by `index` steps'
    // worth of increment, then finalize.  Distinct indices map to
    // distinct pre-mix words, and the finalizer is a bijection, so
    // collisions are impossible for a fixed base.
    return splitmix64(base + index * 0x9e3779b97f4a7c15ULL);
}

/// Counter-based standard-normal generator (Philox/Threefry-style in
/// spirit: stateless output as a pure function of key and counter).
///
/// Where `Pcg32::next_gaussian` is a *sequential* stream — sample n
/// requires having drawn samples 0..n-1, which serializes the noise fill
/// of the sample pipeline — a `Counter_normal` yields the pair at any
/// counter directly:
///
///     pair(c) = BoxMuller(splitmix64-mix(key, c))
///
/// so draws are order-independent, trivially parallel/vectorizable, and
/// replay-deterministic regardless of how the counter range is carved up
/// across threads (the PR 3 fading draws use the same discipline).
///
/// This is the noise source of the *fast* math profile: its Box–Muller
/// transform runs on the noise-grade kernels below (detail::noise_log,
/// detail::box_muller_angle), so it is NOT bit-identical to the Pcg32
/// stream — the exact profile keeps the sequential generator.
/// Statistical quality is locked in by tests/util/counter_normal_test.cpp
/// (moments, KS, stream independence, multi-thread replay).
class Counter_normal {
public:
    /// Key derivation mirrors mix_seed: distinct (seed, stream) pairs
    /// yield statistically independent generators.
    Counter_normal(std::uint64_t seed, std::uint64_t stream);

    /// The two iid N(0,1) draws at `counter` — pure in (key, counter).
    /// Defined inline below so noise-fill loops keep the whole transform
    /// in registers instead of paying a call per sample pair.
    void pair(std::uint64_t counter, double& z0, double& z1) const;

    /// inout[i] += scale · z_i for i in [0, count), z_i the iid N(0,1)
    /// draws at counters [first_counter, first_counter + ceil(count/2))
    /// in (z0, z1) pair order — the fused form the fast-profile AWGN fill
    /// uses, so noise never round-trips through a scratch buffer.  The
    /// scalar table's kernel (util/simd.h), bit-identical to pair().
    void add_scaled(std::uint64_t first_counter, double scale, double* inout,
                    std::size_t count) const;

    /// add_scaled(), routed through the lane kernels (util/simd.h): the
    /// AVX2 or AVX-512 lanes hash/Box–Muller 4 or 8 counter pairs per
    /// step when a lane backend is active, and the scalar add_scaled
    /// serves otherwise.  Either way the output is bit-identical to
    /// add_scaled() at the same counters — the backend's
    /// bit-compatibility contract, pinned by
    /// tests/util/counter_normal_test.cpp.
    void add_scaled_simd(std::uint64_t first_counter, double scale, double* inout,
                         std::size_t count) const;

    std::uint64_t key_a() const { return key_a_; }
    std::uint64_t key_b() const { return key_b_; }

private:
    std::uint64_t key_a_;
    std::uint64_t key_b_;
};

/// 32-bit permuted-congruential generator (PCG-XSH-RR).
///
/// A `Pcg32` is a value type: copying it forks the stream.  Two generators
/// built from the same (seed, stream) produce identical output.
class Pcg32 {
public:
    using result_type = std::uint32_t;

    /// Construct from a seed and an optional stream selector.  Distinct
    /// stream selectors yield statistically independent sequences even for
    /// equal seeds, which lets one experiment hand independent sub-streams
    /// to its components (noise vs. payload vs. jitter).
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /// Next raw 32-bit draw.
    std::uint32_t next_u32();

    /// Next 64-bit draw (two 32-bit draws).
    std::uint64_t next_u64();

    /// Uniform double in [0, 1).
    double next_double();

    /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
    /// Uses rejection sampling, so the result is exactly uniform.
    std::uint32_t next_in_range(std::uint32_t lo, std::uint32_t hi);

    /// Standard normal draw (Box-Muller, one value cached).
    double next_gaussian();

    /// Bernoulli draw with success probability p.
    bool next_bernoulli(double p);

    /// UniformRandomBitGenerator interface, so Pcg32 works with <algorithm>
    /// (std::shuffle and friends).
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return 0xffffffffu; }
    result_type operator()() { return next_u32(); }

    /// Fork an independent child stream; `salt` decorrelates children
    /// forked from the same parent state.
    Pcg32 fork(std::uint64_t salt);

private:
    std::uint64_t state_;
    std::uint64_t inc_;
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

namespace detail {

// The Box-Muller helpers below use *noise-grade* kernels: shortened
// atanh-series log and fdlibm sin/cos polynomials with relative error
// ~1e-9 (log) and ~1e-8 (sin/cos).  A deterministic smooth perturbation at that
// scale is statistically invisible (the KS test in
// tests/util/counter_normal_test.cpp resolves ~4e-3), and noise samples
// feed only statistics — unlike the phase kernels, whose tighter bounds
// the decoder documents.  What matters is kept: exact integer quadrant
// reduction, full 53-bit uniforms, and purity in (key, counter).

/// ln of a positive normal double; relative error ~1e-9 (5-term atanh).
inline double noise_log(double x)
{
    constexpr double ln2_hi = 6.93147180369123816490e-01;
    constexpr double ln2_lo = 1.90821492927058770002e-10;
    constexpr double sqrt2 = 1.41421356237309504880;
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const int raw_e = static_cast<int>((bits >> 52) & 0x7ffu) - 1023;
    const double raw_m = std::bit_cast<double>((bits & 0xfffffffffffffULL)
                                               | 0x3ff0000000000000ULL);
    // Branchless fold: halving the mantissa is an exponent decrement in
    // the bit pattern (m stays in [1, 2), no underflow possible), so the
    // fold becomes integer arithmetic on the comparison result — the
    // branch here is data-random and would mispredict ~half the time.
    const auto fold = static_cast<std::uint64_t>(raw_m > sqrt2);
    const double m = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(raw_m) - (fold << 52u));
    const int e = raw_e + static_cast<int>(fold);
    const double f = (m - 1.0) / (m + 1.0);
    const double w = f * f;
    const double w2 = w * w;
    const double poly = 2.0 * f
                        * ((1.0 + w * (1.0 / 3.0))
                           + (1.0 / 5.0 + w * (1.0 / 7.0) + w2 * (1.0 / 9.0)) * w2);
    const double ed = static_cast<double>(e);
    return ed * ln2_hi + (ed * ln2_lo + poly);
}

/// Box-Muller radius from the first hash word: sqrt(-2 ln u1) with
/// u1 = ((w1 >> 11) + 1) / 2^53 in (0, 1].  The 53-bit word is cast
/// through int64 (it is < 2^63), which maps to one hardware convert
/// instead of the unsigned fix-up sequence.
inline double box_muller_radius(std::uint64_t w1)
{
    const double u1 =
        static_cast<double>(static_cast<std::int64_t>((w1 >> 11u) + 1u)) * 0x1.0p-53;
    return std::sqrt(-2.0 * noise_log(u1));
}

/// sin/cos of the Box-Muller angle 2π·u2, u2 = (w2 >> 11) / 2^53, with
/// the quadrant split done in *integer* arithmetic: k = round(W/2^51),
/// r = (W − k·2^51)·(π/2)/2^51 ∈ [−π/4, π/4].  The reduction is exact
/// (no Cody–Waite needed) and feeds 4-term truncations of the fdlibm
/// minimax sin/cos kernels.
inline void box_muller_angle(std::uint64_t w2, double& s, double& c)
{
    const std::uint64_t w = w2 >> 11u;
    const auto k = static_cast<std::int64_t>((w + (1ULL << 50u)) >> 51u);
    const auto rem = static_cast<std::int64_t>(w) - (k << 51u);
    const double r =
        static_cast<double>(rem) * (0x1.0p-51 * 1.57079632679489661923);
    // Noise-grade 4-term kernels (abs error ~1e-8 on |r| <= pi/4).
    const double z = r * r;
    const double ss =
        r + r * z
                * (-1.66666666666666324348e-01
                   + z * (8.33333333332248946124e-03
                          + z * (-1.98412698298579493134e-04
                                 + z * 2.75573137070700676789e-06)));
    const double cc =
        1.0 - 0.5 * z
        + z * z
              * (4.16666666666666019037e-02
                 + z * (-1.38888888888741095749e-03
                        + z * (2.48015872894767294178e-05
                               + z * -2.75573143513906633035e-07)));
    // Branchless quadrant assembly in the bit domain: swap via masked
    // select, sign flips via XOR of the sign bit.  Exact (no arithmetic
    // on the values), and immune to the ~random quadrant of each draw —
    // conditional branches here would mispredict every other pair.
    const auto q = static_cast<std::uint64_t>(k) & 3u;
    const std::uint64_t swap_mask = ~((q & 1u) - 1u); // q odd -> all ones
    const auto sbits = std::bit_cast<std::uint64_t>(ss);
    const auto cbits = std::bit_cast<std::uint64_t>(cc);
    std::uint64_t s_sel = (sbits & ~swap_mask) | (cbits & swap_mask);
    std::uint64_t c_sel = (cbits & ~swap_mask) | (sbits & swap_mask);
    s_sel ^= (q & 2u) << 62u;       // negate sin in quadrants 2, 3
    c_sel ^= ((q + 1u) & 2u) << 62u; // negate cos in quadrants 1, 2
    s = std::bit_cast<double>(s_sel);
    c = std::bit_cast<double>(c_sel);
}

/// Counter_normal::pair on explicit keys.  Two decorrelated uniform
/// words per counter, on independent finalizer lanes (not chained) so
/// the two hashes pipeline; the keys themselves were decorrelated at
/// construction.
inline void counter_normal_pair(std::uint64_t key_a, std::uint64_t key_b,
                                std::uint64_t counter, double& z0, double& z1)
{
    const std::uint64_t w1 = splitmix64(key_a + counter * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t w2 = splitmix64(key_b + counter * 0xc2b2ae3d27d4eb4fULL);
    const double radius = box_muller_radius(w1);
    double s = 0.0;
    double c = 0.0;
    box_muller_angle(w2, s, c);
    z0 = radius * c;
    z1 = radius * s;
}

} // namespace detail

inline void Counter_normal::pair(std::uint64_t counter, double& z0, double& z1) const
{
    detail::counter_normal_pair(key_a_, key_b_, counter, z0, z1);
}

} // namespace anc
