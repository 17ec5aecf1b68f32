#include "util/crc.h"

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/rng.h"

namespace anc {
namespace {

TEST(Crc32, KnownVector)
{
    // CRC-32/IEEE of the ASCII string "123456789" is 0xCBF43926.  The
    // reflected algorithm consumes each byte least-significant-bit first.
    const std::vector<std::uint8_t> ascii{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    Bits bits;
    for (const std::uint8_t byte : ascii) {
        for (int bit = 0; bit < 8; ++bit)
            bits.push_back((byte >> bit) & 1u);
    }
    EXPECT_EQ(crc32(bits), 0xCBF43926u);
    EXPECT_EQ(crc32_bytes("123456789"), 0xCBF43926u); // the byte form
}

TEST(Crc32, EmptyInput)
{
    EXPECT_EQ(crc32(Bits{}), 0u); // init ^ final-xor cancel
    EXPECT_EQ(crc32_bytes(""), 0u);
}

TEST(Crc32, DetectsSingleBitFlip)
{
    Pcg32 rng{21};
    Bits bits = random_bits(512, rng);
    const std::uint32_t original = crc32(bits);
    for (std::size_t i = 0; i < bits.size(); i += 37) {
        bits[i] ^= 1u;
        EXPECT_NE(crc32(bits), original) << "flip at " << i;
        bits[i] ^= 1u;
    }
    EXPECT_EQ(crc32(bits), original);
}

TEST(Crc16, KnownVector)
{
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    const std::vector<std::uint8_t> ascii{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    const Bits bits = unpack_bytes(ascii);
    EXPECT_EQ(crc16(bits), 0x29B1u);
}

TEST(Crc16, DetectsBurstErrors)
{
    Pcg32 rng{22};
    Bits bits = random_bits(256, rng);
    const std::uint16_t original = crc16(bits);
    // Flip a burst of up to 16 consecutive bits: CRC-16 must catch all
    // bursts shorter than its width.
    for (std::size_t burst = 1; burst <= 16; ++burst) {
        for (std::size_t i = 0; i < burst; ++i)
            bits[64 + i] ^= 1u;
        EXPECT_NE(crc16(bits), original) << "burst length " << burst;
        for (std::size_t i = 0; i < burst; ++i)
            bits[64 + i] ^= 1u;
    }
}

TEST(Crc16, DifferentDataDifferentCrc)
{
    Pcg32 rng{23};
    const Bits a = random_bits(128, rng);
    const Bits b = random_bits(128, rng);
    EXPECT_NE(crc16(a), crc16(b));
}

/// Bit-by-bit reference transcriptions of the historical loops.  The
/// production functions were rewritten table-driven (8 bits per lookup);
/// the table form is the textbook identity for the same polynomial
/// division, and these pin it — including the sub-byte tail path — to
/// the original, bit for bit.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> bits)
{
    std::uint32_t crc = 0xffffffffu;
    for (const std::uint8_t bit : bits) {
        crc ^= static_cast<std::uint32_t>(bit & 1u);
        crc = (crc >> 1u) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

std::uint16_t crc16_bitwise(std::span<const std::uint8_t> bits)
{
    std::uint16_t crc = 0xffffu;
    for (const std::uint8_t bit : bits) {
        const bool msb = (crc & 0x8000u) != 0;
        crc = static_cast<std::uint16_t>(crc << 1u);
        if (msb != ((bit & 1u) != 0))
            crc ^= 0x1021u;
    }
    return crc;
}

TEST(Crc, TableDrivenMatchesBitwiseReference)
{
    Pcg32 rng{24};
    for (const std::size_t length :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{509},
          std::size_t{2048}}) {
        const Bits bits = random_bits(length, rng);
        EXPECT_EQ(crc32(bits), crc32_bitwise(bits)) << "length " << length;
        EXPECT_EQ(crc16(bits), crc16_bitwise(bits)) << "length " << length;
    }
}

} // namespace
} // namespace anc
