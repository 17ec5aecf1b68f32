#include "dsp/scrambler.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace anc::dsp {

namespace {

constexpr std::uint16_t keystream_seed = 0xACE1u; // the seed at offset 0

/// One step of the Fibonacci LFSR, taps 16,14,13,11 (V.41); returns the
/// keystream bit.
constexpr std::uint8_t lfsr_step(std::uint16_t& lfsr)
{
    const auto feedback = static_cast<std::uint16_t>(
        ((lfsr >> 0u) ^ (lfsr >> 2u) ^ (lfsr >> 3u) ^ (lfsr >> 5u)) & 1u);
    lfsr = static_cast<std::uint16_t>((lfsr >> 1u) | (feedback << 15u));
    return static_cast<std::uint8_t>(feedback);
}

/// The full-period keystream from keystream_seed, built at compile time
/// (64 KiB of read-only data): no run-time set-up, nothing mutable.
constexpr std::array<std::uint8_t, Scrambler::period> keystream = [] {
    std::array<std::uint8_t, Scrambler::period> bits{};
    std::uint16_t lfsr = keystream_seed;
    for (auto& bit : bits)
        bit = lfsr_step(lfsr);
    return bits;
}();

} // namespace

Scrambler::Scrambler(std::uint16_t seed)
    : offset_{0}
{
    if (seed == 0)
        throw std::invalid_argument{"Scrambler: LFSR seed must be non-zero"};
    // Every nonzero state lies on the one cycle, so this ends within a
    // period (at once for the protocol seed).
    for (std::uint16_t lfsr = keystream_seed; lfsr != seed; ++offset_)
        lfsr_step(lfsr);
}

Bits Scrambler::apply(std::span<const std::uint8_t> bits) const
{
    Bits out(bits.begin(), bits.end());
    std::size_t at = offset_;
    for (std::size_t done = 0; done < out.size(); at = 0) {
        const std::size_t run = std::min(out.size() - done, period - at);
        std::uint8_t* dst = out.data() + done;
        const std::uint8_t* key = keystream.data() + at;
        for (std::size_t i = 0; i < run; ++i)
            dst[i] ^= key[i];
        done += run;
    }
    return out;
}

} // namespace anc::dsp
