#include "net/cope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace anc::net {
namespace {

Packet make_packet(std::uint8_t src, std::uint8_t dst, std::uint16_t seq,
                   std::size_t bits, std::uint64_t seed)
{
    Pcg32 rng{seed};
    Packet packet;
    packet.src = src;
    packet.dst = dst;
    packet.seq = seq;
    packet.payload = random_bits(bits, rng);
    return packet;
}

TEST(Cope, EncodeParseRoundTrip)
{
    const Packet a = make_packet(1, 3, 10, 256, 1201);
    const Packet b = make_packet(3, 1, 20, 256, 1202);
    const Bits coded = cope_encode(a, b);
    EXPECT_EQ(coded.size(), 128u + 256u);
    const auto parsed = cope_parse(coded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, header_for(a));
    EXPECT_EQ(parsed->second, header_for(b));
}

TEST(Cope, DecodeRecoverEachSide)
{
    const Packet a = make_packet(1, 3, 10, 300, 1203);
    const Packet b = make_packet(3, 1, 20, 300, 1204);
    const auto parsed = cope_parse(cope_encode(a, b));
    ASSERT_TRUE(parsed.has_value());

    // Alice knows a, wants b.
    const auto got_b = cope_decode(*parsed, header_for(a), a.payload);
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(*got_b, b);
    // Bob knows b, wants a.
    const auto got_a = cope_decode(*parsed, header_for(b), b.payload);
    ASSERT_TRUE(got_a.has_value());
    EXPECT_EQ(*got_a, a);
}

TEST(Cope, UnequalLengthsZeroPad)
{
    const Packet a = make_packet(1, 3, 10, 100, 1205);
    const Packet b = make_packet(3, 1, 20, 260, 1206);
    const auto parsed = cope_parse(cope_encode(a, b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->xored.size(), 260u);
    const auto got_b = cope_decode(*parsed, header_for(a), a.payload);
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(*got_b, b);
    const auto got_a = cope_decode(*parsed, header_for(b), b.payload);
    ASSERT_TRUE(got_a.has_value());
    EXPECT_EQ(*got_a, a);
}

TEST(Cope, UnknownPacketCannotDecode)
{
    const Packet a = make_packet(1, 3, 10, 128, 1207);
    const Packet b = make_packet(3, 1, 20, 128, 1208);
    const Packet c = make_packet(5, 6, 30, 128, 1209);
    const auto parsed = cope_parse(cope_encode(a, b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(cope_decode(*parsed, header_for(c), c.payload).has_value());
}

TEST(Cope, ParseRejectsShortPayload)
{
    EXPECT_FALSE(cope_parse(Bits(64, 0)).has_value());
}

TEST(Cope, ParseRejectsCorruptEmbeddedHeader)
{
    const Packet a = make_packet(1, 3, 10, 64, 1210);
    const Packet b = make_packet(3, 1, 20, 64, 1211);
    Bits coded = cope_encode(a, b);
    coded[10] ^= 1u; // inside header A
    EXPECT_FALSE(cope_parse(coded).has_value());
}

TEST(Cope, ParseRejectsLengthMismatch)
{
    const Packet a = make_packet(1, 3, 10, 64, 1212);
    const Packet b = make_packet(3, 1, 20, 64, 1213);
    Bits coded = cope_encode(a, b);
    coded.push_back(0); // stray bit
    EXPECT_FALSE(cope_parse(coded).has_value());
}

TEST(Cope, BitErrorsInXorPropagateToOneSide)
{
    const Packet a = make_packet(1, 3, 10, 200, 1214);
    const Packet b = make_packet(3, 1, 20, 200, 1215);
    Bits coded = cope_encode(a, b);
    coded[128 + 50] ^= 1u; // one payload bit error on the air
    const auto parsed = cope_parse(coded);
    ASSERT_TRUE(parsed.has_value());
    const auto got_b = cope_decode(*parsed, header_for(a), a.payload);
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(hamming_distance(got_b->payload, b.payload), 1u);
}

/// cope_encode's former per-bit loop: both headers, then the XOR of the
/// zero-padded payloads.
Bits per_bit_encode(const Packet& a, const Packet& b)
{
    Bits out = phy::encode_header(header_for(a));
    const Bits header_b = phy::encode_header(header_for(b));
    out.insert(out.end(), header_b.begin(), header_b.end());
    const std::size_t body = std::max(a.payload.size(), b.payload.size());
    for (std::size_t i = 0; i < body; ++i) {
        const std::uint8_t bit_a = i < a.payload.size() ? a.payload[i] : 0;
        const std::uint8_t bit_b = i < b.payload.size() ? b.payload[i] : 0;
        out.push_back(bit_a ^ bit_b);
    }
    return out;
}

/// cope_decode's former per-bit loop: `wanted_bits` bits, where a bit
/// past either operand reads as 0.
Bits per_bit_decode(const Bits& xored, const Bits& known, std::size_t wanted_bits)
{
    Bits out(wanted_bits);
    for (std::size_t i = 0; i < wanted_bits; ++i) {
        const std::uint8_t known_bit = i < known.size() ? known[i] : 0;
        const std::uint8_t mixed = i < xored.size() ? xored[i] : 0;
        out[i] = known_bit ^ mixed;
    }
    return out;
}

TEST(Cope, PrefixXorMatchesPerBitLoops)
{
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 17; ++n)
        lengths.push_back(n);
    for (std::size_t n = 2045; n <= 2051; ++n)
        lengths.push_back(n);

    Pcg32 rng{1216};
    for (const std::size_t length_a : lengths) {
        for (const std::size_t length_b : lengths) {
            const Packet a = make_packet(1, 3, 10, length_a, rng.next_u32());
            const Packet b = make_packet(3, 1, 20, length_b, rng.next_u32());
            const Bits coded = cope_encode(a, b);
            ASSERT_EQ(coded, per_bit_encode(a, b)) << length_a << " x " << length_b;

            auto parsed = cope_parse(coded);
            ASSERT_TRUE(parsed.has_value());
            // Alice's copy of a may be cut short or carry extra bits: a
            // known payload shorter and longer than the wanted packet b.
            for (const std::size_t known_bits :
                 {std::size_t{0}, length_a / 2, length_a, length_a + 3, length_b + 5}) {
                Bits known = a.payload;
                known.resize(std::min(known_bits, known.size()));
                const Bits extra = random_bits(known_bits - known.size(), rng);
                known.insert(known.end(), extra.begin(), extra.end());
                const auto got = cope_decode(*parsed, header_for(a), known);
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(got->payload, per_bit_decode(parsed->xored, known, length_b))
                    << length_a << " x " << length_b << ", known " << known_bits;
            }
            // A hand-built coded packet whose XOR body is shorter or
            // longer than the header it carries says.
            for (const std::size_t xored_bits : {std::size_t{0}, length_b / 3, length_b + 7}) {
                Cope_coded hand = *parsed;
                hand.xored = random_bits(xored_bits, rng);
                const auto got = cope_decode(hand, header_for(b), b.payload);
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(got->payload, per_bit_decode(hand.xored, b.payload, length_a))
                    << length_a << " x " << length_b << ", xored " << xored_bits;
            }
        }
    }
}

} // namespace
} // namespace anc::net
