#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/simd.h"

namespace anc {

namespace {

constexpr std::uint64_t mult = 6364136223846793005ULL;

} // namespace

Counter_normal::Counter_normal(std::uint64_t seed, std::uint64_t stream)
    : key_a_{splitmix64(mix_seed(seed, stream) + 0x6a09e667f3bcc909ULL)},
      key_b_{splitmix64(mix_seed(seed, stream) ^ 0xbb67ae8584caa73bULL)}
{
    // Both lanes mix (seed, stream) together: if only one lane saw the
    // stream, two streams sharing a seed would share that lane's hash
    // words — i.e. identical Box-Muller radii (correlated magnitudes).
}

void Counter_normal::add_scaled(std::uint64_t first_counter, double scale, double* inout,
                                std::size_t count) const
{
    simd::detail::scalar_kernels.counter_normal_add_scaled(key_a_, key_b_, first_counter,
                                                           scale, inout, count);
}

// Lane elements are (z0, z1) pairs — two doubles of the buffer each —
// so a lane kernel takes 8 (avx512) or 4 (avx2) counters per block; the
// remainder, an odd trailing normal included, goes to the scalar kernel,
// which is element-wise identical (draws are pure in (key, counter), so
// the seam carries no state).
void Counter_normal::add_scaled_simd(std::uint64_t first_counter, double scale,
                                     double* inout, std::size_t count) const
{
    simd::dispatch<2>(count, &simd::detail::Kernel_table::counter_normal_add_scaled,
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
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
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

bool Pcg32::next_bernoulli(double p)
{
    return next_double() < p;
}

Pcg32 Pcg32::fork(std::uint64_t salt)
{
    const std::uint64_t seed = next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t stream = next_u64() + salt;
    return Pcg32{seed, stream};
}

} // namespace anc
