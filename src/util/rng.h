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
#include <span>

namespace anc {

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
/// Used wherever a seed must be derived from (base, counter) pairs —
/// e.g. the sweep engine's per-task seeds — so that nearby counters
/// yield statistically unrelated Pcg32 streams.
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
///     pair(c) = BoxMuller(hash32(key, c))
///
/// so draws are order-independent, trivially parallel/vectorizable, and
/// replay-deterministic regardless of how the counter range is carved up
/// across threads (the PR 3 fading draws use the same discipline).
///
/// This is the noise source of the *fast* math profile: its Box–Muller
/// transform runs in single precision on the noise-grade kernels below
/// (detail::noise_radius, detail::noise_sincos; 24-bit uniforms, every
/// |z| <= 5.77), widened to double only where it is scaled into a
/// buffer.  So it is NOT bit-identical to the Pcg32 stream — the exact
/// profile keeps the sequential generator.  Statistical quality is
/// locked in by tests/util/counter_normal_test.cpp (moments, KS, tail
/// fractions, stream independence, multi-thread replay).
class Counter_normal {
public:
    /// Key derivation mirrors mix_seed: distinct (seed, stream) pairs
    /// yield statistically independent generators.
    Counter_normal(std::uint64_t seed, std::uint64_t stream);

    /// inout[i] += scale · z_i for i in [0, count), z_i the iid N(0,1)
    /// draws at counters [first_counter, first_counter + ceil(count/2))
    /// in (z0, z1) pair order, each pair detail::counter_normal_pair on
    /// the generator's keys, widened to double — the fused form the
    /// fast-profile AWGN fill uses, so noise never round-trips through a
    /// scratch buffer.  Routed through the lane kernels (util/simd.h):
    /// the AVX2 or AVX-512 float lanes hash/Box–Muller 8 or 16 counters
    /// per step when a lane backend is active, and the scalar table's
    /// kernel serves otherwise and for the tail.  Every backend gives the
    /// same bits — the backend's bit-compatibility contract, pinned by
    /// tests/util/counter_normal_test.cpp.
    void add_scaled_simd(std::uint64_t first_counter, double scale, double* inout,
                         std::size_t count) const;

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

    /// Write the low bit of each of the next `out.size()` next_u32() draws
    /// into `out`, one per byte, leaving the state exactly as that many
    /// next_u32() calls would (the cached Gaussian is untouched).  Four
    /// leapfrogged LCG lanes each jump four draws per step, so the serial
    /// multiply chain is a quarter as long.
    void low_bits_into(std::span<std::uint8_t> out);

    /// Next 64-bit draw (two 32-bit draws).
    std::uint64_t next_u64();

    /// Write the next `out.size()` next_u64() draws into `out`, leaving
    /// the state exactly as that many next_u64() calls would (the cached
    /// Gaussian is untouched), on the same leapfrogged lanes as
    /// low_bits_into.
    void next_u64_into(std::span<std::uint64_t> out);

    /// Uniform double in [0, 1).
    double next_double();

    /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
    /// Uses rejection sampling, so the result is exactly uniform.
    std::uint32_t next_in_range(std::uint32_t lo, std::uint32_t hi);

    /// Standard normal draw (Box-Muller, one value cached).
    double next_gaussian();

    /// Whether next_gaussian() would return the cached second value of a
    /// pair rather than draw.
    bool has_cached_gaussian() const { return has_cached_gaussian_; }

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

// The Box-Muller helpers below are *noise-grade* float kernels: 32-bit
// hash words, 24-bit uniforms, and Cephes-style single-precision log and
// sin/cos polynomials (errors ~1e-7).  A deterministic smooth
// perturbation at that scale is statistically invisible (the KS test in
// tests/util/counter_normal_test.cpp resolves ~4e-3), and noise samples
// feed only statistics — unlike the phase kernels, whose tighter bounds
// the decoder documents.  What matters is kept: exact integer quadrant
// reduction and purity in (key, counter).  The smallest uniform, 2^-24,
// caps every draw at |z| <= sqrt(48 ln 2) ~ 5.768, a cut the normal
// tail crosses with probability ~8e-9.  The lane kernels
// (util/simd_kernels.inl) run the same float operations in the same
// order, so every backend draws the same bits.

/// One 32-bit hash word: Wellons's two-multiply "lowbias32" avalanche
/// of the Weyl word `word`, with the key's high half XORed in between
/// the rounds so all 64 key bits select the stream.  A bijection of
/// `word` for a fixed `key_hi`.
inline std::uint32_t noise_hash(std::uint32_t word, std::uint32_t key_hi)
{
    word ^= word >> 16u;
    word *= 0x7feb352du;
    word ^= (word >> 15u) ^ key_hi;
    word *= 0x846ca68bu;
    return word ^ (word >> 16u);
}

/// ln of a positive normal float, Cephes logf's polynomial.  The fold of
/// the mantissa m in [1, 2) to [sqrt(1/2), sqrt(2)) is integer
/// arithmetic: fold = (mantissa bits > those of sqrt(2)), computed from
/// the borrow of a subtraction so no data-random branch or select runs.
inline float noise_log(float x)
{
    const auto bits = std::bit_cast<std::uint32_t>(x);
    const std::uint32_t mantissa = bits & 0x7fffffu;
    const std::uint32_t fold = (0x3504f3u - mantissa) >> 31u;
    const float m = std::bit_cast<float>((mantissa | 0x3f800000u) - (fold << 23u));
    const float e = static_cast<float>(static_cast<std::int32_t>((bits >> 23u) + fold) - 127);
    const float f = m - 1.0f;
    const float z = f * f;
    // The degree-8 polynomial in Estrin form (short dependency chains).
    const float z2 = z * z;
    const float lo = (3.3333331174e-1f - 2.4999993993e-1f * f)
                    + (2.0000714765e-1f - 1.6668057665e-1f * f) * z;
    const float hi = (1.4249322787e-1f - 1.2420140846e-1f * f)
                    + (1.1676998740e-1f - 1.1514610310e-1f * f) * z;
    const float p = (lo + hi * z2) + 7.0376836292e-2f * (z2 * z2);
    return e * 0.693147180559945309f + (f + (f * z * p - 0.5f * z));
}

/// Box-Muller radius from the first hash word: sqrt(-2 ln u1) with
/// u1 = ((w1 >> 8) + 1) / 2^24 in [2^-24, 1] (the convert is exact).
inline float noise_radius(std::uint32_t w1)
{
    const float u1 = static_cast<float>(static_cast<std::int32_t>((w1 >> 8u) + 1u)) * 0x1.0p-24f;
    return std::sqrt(-2.0f * noise_log(u1));
}

/// sin/cos of the Box-Muller angle 2π·u2, u2 = (w2 >> 8) / 2^24, with
/// the quadrant split done in *integer* arithmetic: k = round(w/2^22),
/// r = (w − k·2^22)·(π/2)/2^22 in [−π/4, π/4].  The reduction and the
/// convert are exact, and feed Cephes's sinf/cosf kernels.
inline void noise_sincos(std::uint32_t w2, float& s, float& c)
{
    const std::uint32_t w = w2 >> 8u;
    const std::uint32_t k = (w + (1u << 21u)) >> 22u;
    const auto rem = static_cast<std::int32_t>(w - (k << 22u));
    const float r = static_cast<float>(rem) * (0x1.0p-22f * 1.57079632679489661923f);
    const float z = r * r;
    const float sp = (-1.9515295891e-4f * z + 8.3321608736e-3f) * z - 1.6666654611e-1f;
    const float ss = r + r * z * sp;
    const float cp = (2.443315711809948e-5f * z - 1.388731625493765e-3f) * z
                     + 4.166664568298827e-2f;
    const float cc = (1.0f - 0.5f * z) + z * z * cp;
    // Branchless quadrant assembly in the bit domain: swap via an XOR
    // mask, sign flips via XOR of the sign bit.  Exact (no arithmetic on
    // the values), and immune to the ~random quadrant of each draw —
    // conditional branches here would mispredict every other pair.
    const std::uint32_t q = k & 3u;
    const auto sbits = std::bit_cast<std::uint32_t>(ss);
    const auto cbits = std::bit_cast<std::uint32_t>(cc);
    const std::uint32_t swap = (sbits ^ cbits) & (0u - (q & 1u)); // q odd -> swap
    s = std::bit_cast<float>((sbits ^ swap) ^ ((q & 2u) << 30u));       // negate in q 2, 3
    c = std::bit_cast<float>((cbits ^ swap) ^ (((q + 1u) & 2u) << 30u)); // negate in q 1, 2
}

// Weyl increments of the two hash words' counter sequences.
inline constexpr std::uint32_t noise_inc_a = 0x9e3779b9u;
inline constexpr std::uint32_t noise_inc_b = 0x85ebca6bu;

/// One counter's draw pair on explicit keys, in float.  Two decorrelated
/// hash words per counter, each the low key half plus the counter's
/// Weyl step hashed with the high key half; the keys themselves were
/// decorrelated at construction.  Counters are taken mod 2^32.
inline void counter_normal_pair(std::uint64_t key_a, std::uint64_t key_b,
                                std::uint64_t counter, float& z0, float& z1)
{
    const auto n = static_cast<std::uint32_t>(counter);
    const std::uint32_t w1 = noise_hash(static_cast<std::uint32_t>(key_a) + n * noise_inc_a,
                                        static_cast<std::uint32_t>(key_a >> 32u));
    const std::uint32_t w2 = noise_hash(static_cast<std::uint32_t>(key_b) + n * noise_inc_b,
                                        static_cast<std::uint32_t>(key_b >> 32u));
    const float radius = noise_radius(w1);
    float s = 0.0f;
    float c = 0.0f;
    noise_sincos(w2, s, c);
    z0 = radius * c;
    z1 = radius * s;
}

} // namespace detail

} // namespace anc
