#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/simd.h"

namespace anc {

namespace {

constexpr std::uint64_t mult = 6364136223846793005ULL;

/// PCG-XSH-RR output of the pre-step state `old`.
inline std::uint32_t pcg_output(std::uint64_t old)
{
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

/// The next `draws` next_u32() outputs of the LCG at (state, inc), on
/// four leapfrogged lanes: lane k holds the state of draws k, k+4, k+8,
/// ...; one jump of four LCG steps is s -> mult^4 s + inc (mult^3 +
/// mult^2 + mult + 1) (mod 2^64), and the four jumps of a step are
/// independent, so the serial multiply chain is a quarter as long.
/// Calls emit(i, o) with the outputs o[0..3] of draws i .. i+3 for each
/// whole step, in order, advances `state` past them and returns how
/// many draws it made (`draws` rounded down to a multiple of four).
template <class Emit>
std::size_t leapfrog_draws(std::uint64_t& state, std::uint64_t inc, std::size_t draws,
                           Emit emit)
{
    if (draws < 4)
        return 0;
    constexpr std::uint64_t mult2 = mult * mult;
    constexpr std::uint64_t jump_mult = mult2 * mult2;
    const std::uint64_t jump_inc = inc * (mult2 * mult + mult2 + mult + 1u);
    std::uint64_t lane[4]{state};
    for (int k = 1; k < 4; ++k)
        lane[k] = lane[k - 1] * mult + inc;
    std::size_t i = 0;
    for (; i + 4 <= draws; i += 4) {
        std::uint32_t o[4];
        for (int k = 0; k < 4; ++k) {
            o[k] = pcg_output(lane[k]);
            lane[k] = lane[k] * jump_mult + jump_inc;
        }
        emit(i, o);
    }
    state = lane[0];
    return i;
}

} // namespace

Counter_normal::Counter_normal(std::uint64_t seed, std::uint64_t stream)
    : key_a_{splitmix64(mix_seed(seed, stream) + 0x6a09e667f3bcc909ULL)},
      key_b_{splitmix64(mix_seed(seed, stream) ^ 0xbb67ae8584caa73bULL)}
{
    // Both lanes mix (seed, stream) together: if only one lane saw the
    // stream, two streams sharing a seed would share that lane's hash
    // words — i.e. identical Box-Muller radii (correlated magnitudes).
}

// A lane step draws 16 (avx512) or 8 (avx2) counters in float lanes,
// i.e. four doubles of the buffer per double lane; the remainder, an odd
// trailing normal included, goes to the scalar kernel, which is
// element-wise identical (draws are pure in (key, counter), so the seam
// carries no state).
void Counter_normal::add_scaled_simd(std::uint64_t first_counter, double scale,
                                     double* inout, std::size_t count) const
{
    simd::dispatch<4>(count, &simd::detail::Kernel_table::counter_normal_add_scaled,
                      [&](auto kernel, std::size_t at, std::size_t n) {
                          kernel(key_a_, key_b_, first_counter + at / 2, scale, inout + at,
                                 n);
                      });
}

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_{0}, inc_{(stream << 1u) | 1u}
{
    next_u32();
    state_ += seed;
    next_u32();
}

std::uint32_t Pcg32::next_u32()
{
    const std::uint64_t old = state_;
    state_ = old * mult + inc_;
    return pcg_output(old);
}

void Pcg32::low_bits_into(std::span<std::uint8_t> out)
{
    std::size_t i = leapfrog_draws(state_, inc_, out.size(),
                                   [&](std::size_t at, const std::uint32_t (&o)[4]) {
                                       for (int k = 0; k < 4; ++k)
                                           out[at + k] = static_cast<std::uint8_t>(o[k] & 1u);
                                   });
    for (; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(next_u32() & 1u);
}

void Pcg32::next_u64_into(std::span<std::uint64_t> out)
{
    std::size_t i = leapfrog_draws(state_, inc_, 2 * out.size(),
                                   [&](std::size_t at, const std::uint32_t (&o)[4]) {
                                       out[at / 2] = (std::uint64_t{o[0]} << 32u) | o[1];
                                       out[at / 2 + 1] = (std::uint64_t{o[2]} << 32u) | o[3];
                                   }) / 2;
    for (; i < out.size(); ++i)
        out[i] = next_u64();
}

std::uint64_t Pcg32::next_u64()
{
    const std::uint64_t hi = next_u32();
    const std::uint64_t lo = next_u32();
    return (hi << 32u) | lo;
}

double Pcg32::next_double()
{
    // 53 random bits mapped to [0,1): the standard 64-bit-to-double recipe.
    return static_cast<double>(next_u64() >> 11u) * 0x1.0p-53;
}

std::uint32_t Pcg32::next_in_range(std::uint32_t lo, std::uint32_t hi)
{
    const std::uint32_t span = hi - lo + 1u;
    if (span == 0u)       // lo==0, hi==UINT32_MAX: whole range
        return next_u32();
    // Lemire-style rejection: discard draws from the biased tail.
    const std::uint32_t limit = (0u - span) % span;
    for (;;) {
        const std::uint32_t draw = next_u32();
        if (draw >= limit)
            return lo + draw % span;
    }
}

double Pcg32::next_gaussian()
{
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    // Box-Muller on two uniforms; u1 is kept away from zero so log() is safe.
    double u1 = 0.0;
    do {
        u1 = next_double();
    } while (u1 <= 1e-300);
    const double u2 = next_double();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = radius * std::sin(angle);
    has_cached_gaussian_ = true;
    return radius * std::cos(angle);
}

Pcg32 Pcg32::fork(std::uint64_t salt)
{
    const std::uint64_t seed = next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t stream = next_u64() + salt;
    return Pcg32{seed, stream};
}

} // namespace anc
