#include "dsp/scrambler.h"

#include <algorithm>
#include <array>

namespace anc::dsp {

namespace {

constexpr std::uint16_t keystream_seed = 0xACE1u; // the protocol seed

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
constexpr std::array<std::uint8_t, scrambler_period> keystream = [] {
    std::array<std::uint8_t, scrambler_period> bits{};
    std::uint16_t lfsr = keystream_seed;
    for (auto& bit : bits)
        bit = lfsr_step(lfsr);
    return bits;
}();

} // namespace

Bits scramble(std::span<const std::uint8_t> bits)
{
    Bits out(bits.begin(), bits.end());
    for (std::size_t done = 0; done < out.size(); done += scrambler_period) {
        const std::size_t run = std::min(out.size() - done, scrambler_period);
        std::uint8_t* dst = out.data() + done;
        for (std::size_t i = 0; i < run; ++i)
            dst[i] ^= keystream[i];
    }
    return out;
}

} // namespace anc::dsp
