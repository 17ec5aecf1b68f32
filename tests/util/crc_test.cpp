#include "util/crc.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

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
    Bits bits;
    for (const char byte : std::string_view{"123456789"})
        append_uint(bits, static_cast<std::uint8_t>(byte), 8);
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
/// production functions were rewritten table-driven (crc32 slice-by-8,
/// 64 bits per step; crc16 8 bits per lookup); the table form is the
/// textbook identity for the same polynomial division, and these pin it
/// — including the byte and sub-byte tail paths — to the original, bit
/// for bit.
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
    // Lengths 0-130 cover every split of crc32 into 64-bit steps, byte
    // steps and a bit tail twice; 2,048 ± 7 brackets a payload.
    std::vector<std::size_t> lengths{509};
    for (std::size_t length = 0; length <= 130; ++length)
        lengths.push_back(length);
    for (std::size_t length = 2041; length <= 2055; ++length)
        lengths.push_back(length);
    Pcg32 rng{24};
    for (const std::size_t length : lengths) {
        const Bits bits = random_bits(length, rng);
        EXPECT_EQ(crc32(bits), crc32_bitwise(bits)) << "length " << length;
        EXPECT_EQ(crc16(bits), crc16_bitwise(bits)) << "length " << length;

        // The byte form equals the bitwise CRC of the bytes fed LSB
        // first.
        std::string bytes(length, '\0');
        for (char& byte : bytes)
            byte = static_cast<char>(rng.next_u32());
        Bits lsb_first;
        for (const char byte : bytes) {
            for (int bit = 0; bit < 8; ++bit)
                lsb_first.push_back((static_cast<unsigned char>(byte) >> bit) & 1u);
        }
        EXPECT_EQ(crc32_bytes(bytes), crc32_bitwise(lsb_first)) << "byte length " << length;
    }
}

} // namespace
} // namespace anc
