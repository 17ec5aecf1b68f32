#include "util/bits.h"

#include <gtest/gtest.h>

namespace anc {
namespace {

TEST(Bits, AppendAndReadUint)
{
    Bits bits;
    append_uint(bits, 0xCAFE, 16);
    append_uint(bits, 5, 3);
    EXPECT_EQ(bits.size(), 19u);
    EXPECT_EQ(read_uint(bits, 0, 16), 0xCAFEu);
    EXPECT_EQ(read_uint(bits, 16, 3), 5u);
}

TEST(Bits, ReadUintOutOfRangeThrows)
{
    Bits bits{1, 0, 1};
    EXPECT_THROW(read_uint(bits, 0, 4), std::out_of_range);
    EXPECT_THROW(read_uint(bits, 2, 2), std::out_of_range);
}

TEST(Bits, HammingDistanceCountsDifferences)
{
    const Bits a{1, 1, 0, 0, 1};
    const Bits b{1, 0, 0, 1, 1};
    EXPECT_EQ(hamming_distance(a, b), 2u);
}

TEST(Bits, HammingDistanceChargesLengthMismatch)
{
    const Bits a{1, 1, 0};
    const Bits b{1, 1};
    EXPECT_EQ(hamming_distance(a, b), 1u);
}

TEST(Bits, BitErrorRate)
{
    const Bits a{1, 1, 1, 1};
    const Bits b{1, 1, 0, 0};
    EXPECT_DOUBLE_EQ(bit_error_rate(a, b), 0.5);
    EXPECT_DOUBLE_EQ(bit_error_rate({}, {}), 0.0);
}

TEST(Bits, RandomBitsAreBalanced)
{
    Pcg32 rng{12};
    const Bits bits = random_bits(10000, rng);
    std::size_t ones = 0;
    for (const auto b : bits)
        ones += b;
    EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.5, 0.03);
}

TEST(Bits, MirroredReverses)
{
    const Bits bits{1, 0, 0, 1, 1};
    const Bits expected{1, 1, 0, 0, 1};
    EXPECT_EQ(mirrored(bits), expected);
    EXPECT_EQ(mirrored(mirrored(bits)), bits);
}

TEST(Bits, ToStringRendersBits)
{
    const Bits bits{1, 0, 1, 1};
    EXPECT_EQ(to_string(bits), "1011");
}

} // namespace
} // namespace anc
