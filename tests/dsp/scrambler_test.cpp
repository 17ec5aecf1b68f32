#include "dsp/scrambler.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "util/bits.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

/// One step of the V.41 Fibonacci LFSR (taps 16,14,13,11), as the
/// scrambler historically ran it; returns the keystream bit.
std::uint8_t reference_lfsr_step(std::uint16_t& lfsr)
{
    const auto feedback = static_cast<std::uint16_t>(
        ((lfsr >> 0u) ^ (lfsr >> 2u) ^ (lfsr >> 3u) ^ (lfsr >> 5u)) & 1u);
    lfsr = static_cast<std::uint16_t>((lfsr >> 1u) | (feedback << 15u));
    return static_cast<std::uint8_t>(feedback);
}

/// The historical apply(): run the LFSR from the seed, one bit per step.
Bits reference_scramble(std::uint16_t seed, std::span<const std::uint8_t> bits)
{
    Bits out(bits.size());
    std::uint16_t lfsr = seed;
    for (std::size_t i = 0; i < bits.size(); ++i)
        out[i] = static_cast<std::uint8_t>(bits[i] ^ reference_lfsr_step(lfsr));
    return out;
}

TEST(Scrambler, LfsrHasFullPeriod)
{
    // The shared keystream rests on this: from the protocol seed the LFSR
    // first returns after 65,535 steps, so its one cycle holds every
    // nonzero state and each seed is an offset into it.
    std::uint16_t lfsr = 0xACE1u;
    std::size_t steps = 0;
    do {
        reference_lfsr_step(lfsr);
        ++steps;
    } while (lfsr != 0xACE1u && steps <= Scrambler::period);
    EXPECT_EQ(steps, Scrambler::period);
}

TEST(Scrambler, SharedKeystreamMatchesPerInstanceLfsr)
{
    Pcg32 rng{113};
    for (const std::uint16_t seed : {std::uint16_t{0xACE1}, std::uint16_t{0x0001},
                                     std::uint16_t{0x1234}, std::uint16_t{0x8000}}) {
        const Scrambler scrambler{seed};
        for (const std::size_t length :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, std::size_t{2048}}) {
            const Bits bits = random_bits(length, rng);
            EXPECT_EQ(scrambler.apply(bits), reference_scramble(seed, bits))
                << "seed " << seed << " length " << length;
        }
    }
}

TEST(ScramblerSharedKeystream, ConcurrentFirstApply)
{
    // Eight threads make their first apply at once, on one shared
    // instance and on their own; the keystream is shared process-wide,
    // so this is the case a race detector must see clean.
    Pcg32 rng{114};
    const Bits bits = random_bits(3000, rng);
    const Scrambler shared{0x1234};
    constexpr int threads = 8;
    std::latch start{threads};
    std::vector<Bits> from_shared(threads);
    std::vector<Bits> from_own(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            const Scrambler own{static_cast<std::uint16_t>(0xACE1u + t)};
            start.arrive_and_wait();
            from_shared[t] = shared.apply(bits);
            from_own[t] = own.apply(bits);
        });
    }
    for (std::thread& thread : pool)
        thread.join();
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(from_shared[t], reference_scramble(0x1234, bits));
        EXPECT_EQ(from_own[t],
                  reference_scramble(static_cast<std::uint16_t>(0xACE1u + t), bits));
    }
}

TEST(Scrambler, SelfInverse)
{
    Pcg32 rng{111};
    const Bits data = random_bits(1000, rng);
    const Scrambler scrambler{0x1234};
    EXPECT_EQ(scrambler.apply(scrambler.apply(data)), data);
}

TEST(Scrambler, WhitensConstantInput)
{
    // The whole point (§6.2): even an all-zero payload must look random on
    // the air so that E[cos(theta - phi)] ~ 0.
    const Bits zeros(4096, 0);
    const Scrambler scrambler;
    const Bits whitened = scrambler.apply(zeros);
    std::size_t ones = 0;
    for (const auto b : whitened)
        ones += b;
    const double balance = static_cast<double>(ones) / static_cast<double>(whitened.size());
    EXPECT_NEAR(balance, 0.5, 0.05);
}

TEST(Scrambler, BreaksRuns)
{
    const Bits ones_in(1024, 1);
    const Scrambler scrambler;
    const Bits whitened = scrambler.apply(ones_in);
    std::size_t longest_run = 0;
    std::size_t run = 0;
    for (std::size_t i = 0; i < whitened.size(); ++i) {
        run = (i > 0 && whitened[i] == whitened[i - 1]) ? run + 1 : 1;
        longest_run = std::max(longest_run, run);
    }
    EXPECT_LT(longest_run, 20u);
}

TEST(Scrambler, DifferentSeedsDifferentKeystreams)
{
    const Bits zeros(256, 0);
    const Scrambler a{0x0001};
    const Scrambler b{0x8000};
    EXPECT_NE(a.apply(zeros), b.apply(zeros));
}

TEST(Scrambler, DeterministicAcrossCalls)
{
    Pcg32 rng{112};
    const Bits data = random_bits(128, rng);
    const Scrambler scrambler{0x4242};
    EXPECT_EQ(scrambler.apply(data), scrambler.apply(data));
}

TEST(Scrambler, ZeroSeedRejected)
{
    EXPECT_THROW(Scrambler{0}, std::invalid_argument);
}

TEST(Scrambler, EmptyInput)
{
    const Scrambler scrambler;
    EXPECT_TRUE(scrambler.apply(Bits{}).empty());
}

} // namespace
} // namespace anc::dsp
