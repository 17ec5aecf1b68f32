#include "channel/awgn.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "dsp/energy_scan.h"
#include "util/db.h"
#include "util/rng.h"

namespace anc::chan {
namespace {

/// The exact noise as the historical loop drew it, one sample at a time:
/// s += {sigma·g, sigma·g'} for each next_gaussian() pair (g, g').
void sequential_add(Pcg32& rng, double noise_power, dsp::Signal& signal)
{
    const double sigma = std::sqrt(noise_power / 2.0);
    for (auto& s : signal)
        s += dsp::Sample{sigma * rng.next_gaussian(), sigma * rng.next_gaussian()};
}

void expect_same_bits(const dsp::Signal& got, const dsp::Signal& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].real()),
                  std::bit_cast<std::uint64_t>(want[i].real()))
            << "sample " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].imag()),
                  std::bit_cast<std::uint64_t>(want[i].imag()))
            << "sample " << i;
    }
}

dsp::Signal random_signal(std::size_t size, Pcg32& rng)
{
    dsp::Signal signal(size);
    for (auto& s : signal)
        s = {4.0 * rng.next_double() - 2.0, 4.0 * rng.next_double() - 2.0};
    return signal;
}

/// Runs `noise` and the sequential loop on `rng` (the same generator state)
/// over the same nonzero spans: `size` samples, then 7 more, which shows
/// the generator ends in the loop's state.
void expect_matches_sequential(Awgn& noise, Pcg32 rng, double noise_power, std::size_t size)
{
    Pcg32 inputs{size + 1000};
    for (const std::size_t span : {size, std::size_t{7}}) {
        dsp::Signal got = random_signal(span, inputs);
        dsp::Signal want = got;
        noise.add_in_place(got);
        sequential_add(rng, noise_power, want);
        expect_same_bits(got, want);
    }
}

TEST(Awgn, NoisePowerMatchesRequest)
{
    Awgn noise{0.25, Pcg32{301}};
    const int n = 200000;
    dsp::Signal signal(n);
    noise.add_in_place(signal);
    double energy = 0.0;
    for (const dsp::Sample& s : signal)
        energy += std::norm(s);
    EXPECT_NEAR(energy / n, 0.25, 0.005);
}

TEST(Awgn, ComponentsAreIndependentAndBalanced)
{
    Awgn noise{1.0, Pcg32{302}};
    double re = 0.0;
    double im = 0.0;
    double re_sq = 0.0;
    double im_sq = 0.0;
    double cross = 0.0;
    const int n = 100000;
    dsp::Signal signal(n);
    noise.add_in_place(signal);
    for (const dsp::Sample& s : signal) {
        re += s.real();
        im += s.imag();
        re_sq += s.real() * s.real();
        im_sq += s.imag() * s.imag();
        cross += s.real() * s.imag();
    }
    EXPECT_NEAR(re / n, 0.0, 0.01);
    EXPECT_NEAR(im / n, 0.0, 0.01);
    EXPECT_NEAR(re_sq / n - (re / n) * (re / n), 0.5, 0.01);
    EXPECT_NEAR(im_sq / n - (im / n) * (im / n), 0.5, 0.01);
    EXPECT_NEAR(cross / n, 0.0, 0.01);
}

TEST(Awgn, ExactBulkMatchesSequentialLoop)
{
    for (const std::size_t size : {0, 1, 2, 3, 63, 64, 65, 4099}) {
        SCOPED_TRACE(size);
        const double noise_power = 0.3;
        const Pcg32 rng{900 + size, 3};
        Awgn noise{noise_power, rng};
        expect_matches_sequential(noise, rng, noise_power, size);
    }
}

/// A (seed, stream) whose generator's first next_double() is exactly 0,
/// the u1 the Box-Muller draw rejects: a state s0 whose PCG-XSH-RR output
/// is 0 and whose successor's output is below 2^11, mapped back through
/// the constructor.
std::pair<std::uint64_t, std::uint64_t> seed_of_zero_first_double()
{
    constexpr std::uint64_t mult = 6364136223846793005ULL;
    const auto output = [](std::uint64_t old) {
        const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        const auto rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
    };
    const std::uint64_t stream = 11;
    const std::uint64_t inc = (stream << 1u) | 1u;
    // The output is 0 iff bits 27..58 of s ^ (s >> 18) are 0: bits 46..58
    // of s are 0 and bit i copies bit i + 18 for i in 27..45, from the
    // rotation bits 59..63 down; bits 0..26 are free.
    for (std::uint64_t rot = 0; rot < 32; ++rot) {
        for (std::uint64_t low = 0; low < (std::uint64_t{1} << 27u); ++low) {
            std::uint64_t s0 = (rot << 59u) | low;
            for (unsigned i = 45; i >= 27; --i)
                s0 |= ((s0 >> (i + 18u)) & 1u) << i;
            if (output(s0) != 0 || output(s0 * mult + inc) >= (1u << 11u))
                continue;
            // The constructor leaves s0 = (inc + seed)·mult + inc.
            std::uint64_t inverse = mult; // Newton: 3, 6, ..., 96 correct bits
            for (int k = 0; k < 5; ++k)
                inverse *= 2u - mult * inverse;
            return {(s0 - inc) * inverse - inc, stream};
        }
    }
    return {0, stream};
}

TEST(Awgn, ExactBulkRejectsZeroUniformLikeSequentialLoop)
{
    const auto [seed, stream] = seed_of_zero_first_double();
    const Pcg32 rng{seed, stream};
    Pcg32 probe = rng;
    ASSERT_EQ(probe.next_double(), 0.0);
    for (const std::size_t size : {1, 65}) {
        SCOPED_TRACE(size);
        Awgn noise{0.3, rng};
        expect_matches_sequential(noise, rng, 0.3, size);
    }
}

TEST(Awgn, ExactBulkAfterCachedGaussianMatchesSequentialLoop)
{
    Pcg32 rng{906};
    rng.next_gaussian(); // leaves the pair's second draw cached
    ASSERT_TRUE(rng.has_cached_gaussian());
    Awgn noise{0.3, rng};
    expect_matches_sequential(noise, rng, 0.3, 65);
}

TEST(Awgn, ZeroPowerIsNoiseless)
{
    Awgn noise{0.0, Pcg32{303}};
    dsp::Signal signal(100, dsp::Sample{1.0, 1.0});
    noise.add_in_place(signal);
    for (const dsp::Sample& s : signal)
        EXPECT_EQ(s, (dsp::Sample{1.0, 1.0}));
}

TEST(Awgn, RealizesRequestedSnr)
{
    const double snr_db = 25.0;
    const double noise_power = noise_power_for_snr_db(snr_db, 1.0);
    dsp::Signal received(50000, dsp::Sample{1.0, 0.0}); // unit power
    Awgn noise{noise_power, Pcg32{304}};
    noise.add_in_place(received);
    const double rx_power = dsp::mean_energy(received);
    // Received power = signal + noise power.
    EXPECT_NEAR(rx_power, 1.0 + noise_power, 0.01);
    EXPECT_NEAR(to_db(1.0 / noise_power), snr_db, 1e-9);
}

TEST(Awgn, NegativePowerRejected)
{
    EXPECT_THROW((Awgn{-1.0, Pcg32{305}}), std::invalid_argument);
    EXPECT_THROW((Awgn{std::numeric_limits<double>::quiet_NaN(), Pcg32{305}}),
                 std::invalid_argument);
}

TEST(Awgn, NoiseForSnrHelper)
{
    EXPECT_NEAR(noise_power_for_snr_db(0.0), 1.0, 1e-12);
    EXPECT_NEAR(noise_power_for_snr_db(10.0), 0.1, 1e-12);
    EXPECT_NEAR(noise_power_for_snr_db(20.0, 4.0), 0.04, 1e-12);
}

} // namespace
} // namespace anc::chan
