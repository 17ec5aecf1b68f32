#include "util/bits.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

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

TEST(Bits, RandomBitsMatchPerDrawLoop)
{
    // random_bits draws on four leapfrogged lanes; it must give the low
    // bits of the historical one-next_u32-per-bit loop and leave the
    // generator where that loop did, its cached Gaussian included.
    std::vector<std::size_t> lengths{2048};
    for (std::size_t length = 0; length <= 17; ++length)
        lengths.push_back(length);
    for (const std::size_t length : lengths) {
        for (const bool cached_gaussian : {false, true}) {
            SCOPED_TRACE(testing::Message() << "length " << length << " cached Gaussian "
                                            << cached_gaussian);
            Pcg32 got{length + 99, 5};
            if (cached_gaussian)
                got.next_gaussian(); // leaves the pair's second draw cached
            Pcg32 want = got;
            const Bits bits = random_bits(length, got);
            Bits expected(length);
            for (auto& bit : expected)
                bit = static_cast<std::uint8_t>(want.next_u32() & 1u);
            EXPECT_EQ(bits, expected);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.next_gaussian()),
                      std::bit_cast<std::uint64_t>(want.next_gaussian()));
            EXPECT_EQ(got.next_u32(), want.next_u32());
        }
    }
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
