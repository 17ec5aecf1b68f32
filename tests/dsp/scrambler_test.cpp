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

/// The seed both ends of a link start the LFSR from.
constexpr std::uint16_t protocol_seed = 0xACE1u;

/// The historical scrambler: run the LFSR from the protocol seed, one
/// bit per step.
Bits reference_scramble(std::span<const std::uint8_t> bits)
{
    Bits out(bits.size());
    std::uint16_t lfsr = protocol_seed;
    for (std::size_t i = 0; i < bits.size(); ++i)
        out[i] = static_cast<std::uint8_t>(bits[i] ^ reference_lfsr_step(lfsr));
    return out;
}

TEST(Scrambler, LfsrHasFullPeriod)
{
    // The compile-time keystream rests on this: from the protocol seed
    // the LFSR first returns after 65,535 steps, so one table of that
    // length holds the whole sequence and wraps exactly as the LFSR does.
    std::uint16_t lfsr = protocol_seed;
    std::size_t steps = 0;
    do {
        reference_lfsr_step(lfsr);
        ++steps;
    } while (lfsr != protocol_seed && steps <= scrambler_period);
    EXPECT_EQ(steps, scrambler_period);
}

TEST(Scrambler, SharedKeystreamMatchesPerInstanceLfsr)
{
    Pcg32 rng{113};
    for (const std::size_t length :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
          std::size_t{2048}}) {
        const Bits bits = random_bits(length, rng);
        EXPECT_EQ(scramble(bits), reference_scramble(bits)) << "length " << length;
    }
}

TEST(ScramblerSharedKeystream, ConcurrentFirstApply)
{
    // Eight threads make their first scramble at once; the keystream is
    // shared process-wide, so this is the case a race detector must see
    // clean.
    Pcg32 rng{114};
    const Bits bits = random_bits(3000, rng);
    constexpr int threads = 8;
    std::latch start{threads};
    std::vector<Bits> scrambled(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            start.arrive_and_wait();
            scrambled[t] = scramble(bits);
        });
    }
    for (std::thread& thread : pool)
        thread.join();
    for (int t = 0; t < threads; ++t)
        EXPECT_EQ(scrambled[t], reference_scramble(bits)) << "thread " << t;
}

TEST(Scrambler, SelfInverse)
{
    Pcg32 rng{111};
    const Bits data = random_bits(1000, rng);
    EXPECT_EQ(scramble(scramble(data)), data);
}

TEST(Scrambler, WhitensConstantInput)
{
    // The whole point (§6.2): even an all-zero payload must look random on
    // the air so that E[cos(theta - phi)] ~ 0.
    const Bits zeros(4096, 0);
    const Bits whitened = scramble(zeros);
    std::size_t ones = 0;
    for (const auto b : whitened)
        ones += b;
    const double balance = static_cast<double>(ones) / static_cast<double>(whitened.size());
    EXPECT_NEAR(balance, 0.5, 0.05);
}

TEST(Scrambler, BreaksRuns)
{
    const Bits ones_in(1024, 1);
    const Bits whitened = scramble(ones_in);
    std::size_t longest_run = 0;
    std::size_t run = 0;
    for (std::size_t i = 0; i < whitened.size(); ++i) {
        run = (i > 0 && whitened[i] == whitened[i - 1]) ? run + 1 : 1;
        longest_run = std::max(longest_run, run);
    }
    EXPECT_LT(longest_run, 20u);
}

TEST(Scrambler, DeterministicAcrossCalls)
{
    Pcg32 rng{112};
    const Bits data = random_bits(128, rng);
    EXPECT_EQ(scramble(data), scramble(data));
}

TEST(Scrambler, EmptyInput)
{
    EXPECT_TRUE(scramble(Bits{}).empty());
}

} // namespace
} // namespace anc::dsp
