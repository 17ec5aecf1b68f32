// Hostile input at two receive-side parsers: phy::parse_frame_at (a frame
// at a pilot position) and net::cope_parse (the payload of a COPE
// broadcast).  A seeded loop feeds each one lengths 0, 1 and random,
// truncated and bit-flipped valid encodings and random buffers, and
// requires that nothing crashes and that every field of an accepted
// parse was read from inside the input.  No fuzzing library: the loop is
// plain gtest, so it runs under every sanitizer the suite is built with.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/cope.h"
#include "phy/frame.h"
#include "phy/header.h"
#include "util/bits.h"
#include "util/crc.h"
#include "util/rng.h"

namespace anc {
namespace {

constexpr int iterations = 3000;

std::size_t below(Pcg32& rng, std::size_t bound)
{
    return bound == 0 ? 0 : rng.next_u32() % bound;
}

phy::Frame_header random_header(Pcg32& rng, std::size_t max_payload_bits)
{
    phy::Frame_header header;
    header.src = static_cast<std::uint8_t>(rng.next_u32());
    header.dst = static_cast<std::uint8_t>(rng.next_u32());
    header.seq = static_cast<std::uint16_t>(rng.next_u32());
    header.payload_bits = static_cast<std::uint16_t>(below(rng, max_payload_bits + 1));
    return header;
}

void flip_some(Bits& bits, Pcg32& rng)
{
    const std::size_t flips = below(rng, 4);
    for (std::size_t i = 0; i < flips && !bits.empty(); ++i)
        bits[below(rng, bits.size())] ^= 1u;
}

/// A hostile bit buffer: random bits of length 0, 1 or random, or a
/// valid encoding from `valid` that is truncated, extended, bit-flipped,
/// or left whole.
template <class Valid>
Bits hostile_bits(Pcg32& rng, int iteration, Valid&& valid)
{
    if (iteration == 0)
        return {};
    if (iteration == 1)
        return Bits{1};
    if (rng.next_u32() % 4 == 0)
        return random_bits(below(rng, 3000), rng);
    Bits bits = valid(rng);
    switch (rng.next_u32() % 4) {
    case 0: bits.resize(below(rng, bits.size() + 1)); break;
    case 1: bits.resize(bits.size() + 1 + below(rng, 64), 0); break;
    case 2: flip_some(bits, rng); break;
    default: break;
    }
    return bits;
}

/// `length` bits starting at `pos` lie inside a buffer of `size` bits.
bool inside(std::size_t pos, std::size_t length, std::size_t size)
{
    return pos <= size && length <= size - pos;
}

Bits slice(const Bits& bits, std::size_t pos, std::size_t length)
{
    return Bits(bits.begin() + static_cast<std::ptrdiff_t>(pos),
                bits.begin() + static_cast<std::ptrdiff_t>(pos + length));
}

TEST(HostileInput, ParseFrameAtReadsOnlyInsideItsInput)
{
    Pcg32 rng{0x4057113u};
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int iteration = 0; iteration < iterations; ++iteration) {
        const std::size_t lead = below(rng, 200);
        const Bits bits = hostile_bits(rng, iteration, [&](Pcg32& r) {
            // A frame behind `lead` random bits.
            Bits frame = random_bits(lead, r);
            const phy::Frame_header header = random_header(r, 2000);
            const Bits built = phy::build_frame(header, random_bits(header.payload_bits, r));
            frame.insert(frame.end(), built.begin(), built.end());
            return frame;
        });
        constexpr std::size_t max = std::numeric_limits<std::size_t>::max();
        const std::size_t positions[] = {0,
                                         lead,
                                         below(rng, bits.size() + 1),
                                         bits.size(),
                                         bits.size() + 1,
                                         max - phy::header_length,
                                         max - phy::frame_offsets(0).payload + 1,
                                         max};
        for (const std::size_t pos : positions) {
            SCOPED_TRACE(testing::Message() << "iteration " << iteration << " size "
                                            << bits.size() << " pilot_pos " << pos);
            const auto parsed = phy::parse_frame_at(bits, pos);
            if (!parsed) {
                ++rejected;
                continue;
            }
            ++accepted;
            const phy::Frame_offsets o = phy::frame_offsets(parsed->header.payload_bits);
            ASSERT_TRUE(inside(pos, o.tail_crc, bits.size()));
            EXPECT_EQ(phy::encode_header(parsed->header), slice(bits, pos + o.header, 64));
            EXPECT_EQ(parsed->payload,
                      slice(bits, pos + o.payload, parsed->header.payload_bits));
            const auto crc_field =
                static_cast<std::uint32_t>(read_uint(bits, pos + o.crc, 32));
            EXPECT_EQ(parsed->crc_ok, crc32(parsed->payload) == crc_field);
        }
    }
    // Both outcomes were exercised, so the field checks above ran.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(HostileInput, CopeParseReadsOnlyInsideItsInput)
{
    Pcg32 rng{0xc09e5u};
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int iteration = 0; iteration < iterations; ++iteration) {
        const Bits payload = hostile_bits(rng, iteration, [](Pcg32& r) {
            // Two valid headers whose lengths the body may or may not
            // match: a coded payload built from them, or one with a body
            // of an arbitrary length.
            net::Packet a;
            net::Packet b;
            a.src = static_cast<std::uint8_t>(r.next_u32());
            b.dst = static_cast<std::uint8_t>(r.next_u32());
            a.seq = static_cast<std::uint16_t>(r.next_u32());
            a.payload = random_bits(below(r, 1500), r);
            b.payload = random_bits(below(r, 1500), r);
            Bits coded = net::cope_encode(a, b);
            if (r.next_u32() % 3 == 0)
                coded.resize(2 * phy::header_length + below(r, 1500), 1);
            return coded;
        });
        SCOPED_TRACE(testing::Message() << "iteration " << iteration << " size "
                                        << payload.size());
        const auto parsed = net::cope_parse(payload);
        if (!parsed) {
            ++rejected;
            continue;
        }
        ++accepted;
        const std::size_t headers = 2 * phy::header_length;
        ASSERT_GE(payload.size(), headers);
        EXPECT_EQ(phy::encode_header(parsed->first), slice(payload, 0, 64));
        EXPECT_EQ(phy::encode_header(parsed->second), slice(payload, 64, 64));
        EXPECT_EQ(parsed->xored, slice(payload, headers, payload.size() - headers));
        EXPECT_EQ(parsed->xored.size(),
                  std::max<std::size_t>(parsed->first.payload_bits,
                                        parsed->second.payload_bits));
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(HostileInput, ParsersTolerateNonBitBytes)
{
    // Buffers of arbitrary byte values, not just 0/1: the parsers must
    // still stay inside the input (the field values are garbage).
    Pcg32 rng{0xb17e5u};
    for (int iteration = 0; iteration < iterations; ++iteration) {
        Bits bytes(below(rng, 800));
        for (std::uint8_t& byte : bytes)
            byte = static_cast<std::uint8_t>(rng.next_u32());
        if (const auto frame = phy::parse_frame_at(bytes, below(rng, bytes.size() + 1))) {
            EXPECT_LE(frame->payload.size(), bytes.size());
        }
        if (const auto coded = net::cope_parse(bytes)) {
            EXPECT_LE(coded->xored.size(), bytes.size());
        }
    }
}

} // namespace
} // namespace anc
