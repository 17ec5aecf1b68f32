#include "util/bits.h"

#include <algorithm>
#include <stdexcept>

namespace anc {

void append_uint(Bits& bits, std::uint64_t value, int width)
{
    if (width < 0 || width > 64)
        throw std::invalid_argument{"append_uint: width out of range"};
    for (int bit = width - 1; bit >= 0; --bit)
        bits.push_back(static_cast<std::uint8_t>((value >> bit) & 1u));
}

std::uint64_t read_uint(std::span<const std::uint8_t> bits, std::size_t offset, int width)
{
    if (width < 0 || width > 64 || offset + static_cast<std::size_t>(width) > bits.size())
        throw std::out_of_range{"read_uint: request exceeds bit sequence"};
    std::uint64_t value = 0;
    for (int i = 0; i < width; ++i)
        value = (value << 1u) | bits[offset + static_cast<std::size_t>(i)];
    return value;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
{
    const std::size_t common = std::min(a.size(), b.size());
    std::size_t distance = std::max(a.size(), b.size()) - common;
    for (std::size_t i = 0; i < common; ++i) {
        if (a[i] != b[i])
            ++distance;
    }
    return distance;
}

double bit_error_rate(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
{
    const std::size_t denom = std::max(a.size(), b.size());
    if (denom == 0)
        return 0.0;
    return static_cast<double>(hamming_distance(a, b)) / static_cast<double>(denom);
}

Bits random_bits(std::size_t count, Pcg32& rng)
{
    Bits bits(count);
    rng.low_bits_into(bits);
    return bits;
}

Bits mirrored(std::span<const std::uint8_t> bits)
{
    return Bits{bits.rbegin(), bits.rend()};
}

std::string to_string(std::span<const std::uint8_t> bits)
{
    std::string text;
    text.reserve(bits.size());
    for (const std::uint8_t bit : bits)
        text.push_back(bit ? '1' : '0');
    return text;
}

} // namespace anc
