// Hostile input at the receive-side entry points.  Seeded loops feed
// phy::parse_frame_at (a frame at a pilot position) and net::cope_parse
// (the payload of a COPE broadcast) lengths 0, 1 and random, truncated
// and bit-flipped valid encodings and random buffers, and require that
// nothing crashes and that every field of an accepted parse was read from
// inside the input.  Further loops feed both phy::find_pattern overloads
// extreme search bounds (checked against find_pattern_scalar, the
// historical byte loop in find_pattern_reference.h), and
// Interference_decoder::decode_into and amplify_and_forward_into
// non-finite, denormal and degenerate signals.  The last loop runs the
// whole Anc_receiver::receive on such streams and on real collisions
// heard through extreme link gains, against buffers holding the sent
// frames, corrupted copies of them or junk.  The transmit-side bit
// walks (the MSK modulator, crc32/crc32_bytes and the scrambler) are held
// byte-identical to test-local transcriptions of their historical
// one-bit-per-step loops on non-bit bytes, non-finite and huge initial
// phases, vanishing amplitudes and keystream-wrapping lengths.  No
// fuzzing library: the
// loops are plain gtest, so they run under every sanitizer the suite is
// built with.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/awgn.h"
#include "channel/link.h"
#include "core/anc_receiver.h"
#include "core/interference_decoder.h"
#include "core/relay.h"
#include "core/trigger.h"
#include "dsp/msk.h"
#include "dsp/scrambler.h"
#include "net/cope.h"
#include "phy/frame.h"
#include "phy/header.h"
#include "phy/modem.h"
#include "phy/pilot.h"
#include "util/bits.h"
#include "util/crc.h"
#include "util/obs.h"
#include "util/phase.h"
#include "util/rng.h"

#include "find_pattern_reference.h"

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


TEST(HostileInput, FindPatternMatchesScalarReferenceAtExtremeBounds)
{
    // from, to and max_errors at 0, around a word (63-65), far past any
    // haystack (2^48, where the packed scan's best-key error field
    // starts) and SIZE_MAX; haystacks shorter than the pattern included.
    constexpr std::size_t max = std::numeric_limits<std::size_t>::max();
    const std::size_t extremes[] = {0, 63, 64, 65, std::size_t{1} << 48, max};
    const std::size_t pattern_lengths[] = {1, 5, 63, 64, 65, 100};
    Pcg32 rng{0xf1d9a77u};
    std::size_t found = 0;
    std::size_t missed = 0;
    for (int iteration = 0; iteration < 600; ++iteration) {
        const Bits pattern = random_bits(pattern_lengths[below(rng, 6)], rng);
        Bits bits = random_bits(below(rng, 2 * pattern.size() + 200), rng);
        if (bits.size() >= pattern.size() && rng.next_u32() % 2 == 0) {
            // Plant a noisy copy so matches within small max_errors exist.
            Bits planted = pattern;
            flip_some(planted, rng);
            std::copy(planted.begin(), planted.end(),
                      bits.begin() + static_cast<std::ptrdiff_t>(
                                         below(rng, bits.size() - pattern.size() + 1)));
        }
        const phy::Packed_bits packed_bits{bits};
        const phy::Packed_pattern packed_pattern{pattern};
        auto bound = [&] {
            return rng.next_u32() % 3 == 0 ? below(rng, bits.size() + 2)
                                           : extremes[below(rng, 6)];
        };
        for (int query = 0; query < 20; ++query) {
            const std::size_t from = bound();
            const std::size_t to = bound();
            const std::size_t max_errors =
                rng.next_u32() % 3 == 0 ? below(rng, 8) : extremes[below(rng, 6)];
            SCOPED_TRACE(testing::Message()
                         << "size " << bits.size() << " pattern " << pattern.size()
                         << " from " << from << " to " << to << " max_errors "
                         << max_errors);
            const auto expected =
                test::find_pattern_scalar(bits, pattern, from, to, max_errors);
            for (const auto& actual :
                 {phy::find_pattern(bits, pattern, from, to, max_errors),
                  phy::find_pattern(packed_bits, packed_pattern, from, to, max_errors)}) {
                ASSERT_EQ(actual.has_value(), expected.has_value());
                if (actual) {
                    EXPECT_EQ(actual->position, expected->position);
                    EXPECT_EQ(actual->errors, expected->errors);
                    ASSERT_TRUE(inside(actual->position, pattern.size(), bits.size()));
                }
            }
            ++(expected ? found : missed);
        }
    }
    EXPECT_GT(found, 1000u);
    EXPECT_GT(missed, 1000u);
}

/// `count` samples, about one in eight of each part replaced by NaN,
/// ±Inf, a denormal or ±0.
dsp::Signal hostile_samples(std::size_t count, Pcg32& rng)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               inf,
                               -inf,
                               std::numeric_limits<double>::denorm_min(),
                               -4.9e-310,
                               0.0,
                               -0.0};
    auto part = [&] {
        return rng.next_u32() % 8 == 0 ? specials[below(rng, 7)]
                                       : 2.0 * rng.next_double() - 1.0;
    };
    dsp::Signal samples(count);
    for (dsp::Sample& y : samples)
        y = {part(), part()};
    return samples;
}

TEST(HostileInput, InterferenceDecoderStaysInBounds)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    const double amplitudes[] = {1.0, 0.3, std::numeric_limits<double>::denorm_min(),
                                 1e300, inf, nan, 0.0, -1.0};
    Pcg32 rng{0xdec0de5u};
    for (const dsp::Math_profile profile : {dsp::Math_profile::exact,
                                            dsp::Math_profile::fast}) {
        const Interference_decoder decoder{profile};
        for (int iteration = 0; iteration < 1500; ++iteration) {
            const std::size_t count = iteration < 2 ? static_cast<std::size_t>(iteration)
                                                    : below(rng, 300);
            const dsp::Signal samples = hostile_samples(count, rng);
            // known_diffs shorter than, as long as, or longer than the
            // transitions, holding MSK steps and the same specials.
            const std::size_t known = below(rng, count + 40);
            std::vector<double> known_diffs(known);
            for (double& diff : known_diffs) {
                diff = rng.next_u32() % 8 == 0 ? hostile_samples(1, rng)[0].real()
                       : rng.next_u32() % 2 == 0 ? 1.5707963267948966
                                                 : -1.5707963267948966;
            }
            const double a = amplitudes[below(rng, 8)];
            const double b = amplitudes[below(rng, 8)];
            SCOPED_TRACE(testing::Message() << "count " << count << " known " << known
                                            << " a " << a << " b " << b);
            Bits bits(5, 7); // stale lease contents
            std::vector<double> phi(3, 9.0);
            std::vector<double> errors(4, 9.0);
            if (!(a > 0.0) || !(b > 0.0)) {
                EXPECT_THROW(decoder.decode_into(samples, known_diffs, a, b, bits, phi,
                                                 errors),
                             std::invalid_argument);
                continue;
            }
            decoder.decode_into(samples, known_diffs, a, b, bits, phi, errors);
            const std::size_t transitions = count < 2 ? 0 : count - 1;
            ASSERT_EQ(bits.size(), transitions);
            ASSERT_EQ(phi.size(), transitions);
            ASSERT_EQ(errors.size(), std::min(known, transitions));
            for (std::size_t n = 0; n < transitions; ++n)
                EXPECT_EQ(bits[n], phi[n] >= 0.0 ? 1 : 0) << "transition " << n;
        }
    }
}

TEST(HostileInput, AmplifyAndForwardOnNonFiniteInput)
{
    Pcg32 rng{0xaf0u};
    std::size_t forwarded_count = 0;
    for (int iteration = 0; iteration < 1500; ++iteration) {
        const std::size_t count = iteration < 2 ? static_cast<std::size_t>(iteration)
                                                : below(rng, 400);
        dsp::Signal received = hostile_samples(count, rng);
        if (rng.next_u32() % 4 == 0) {
            // A whole stream of one special value.
            const dsp::Sample special = hostile_samples(1, rng)[0];
            std::fill(received.begin(), received.end(), special);
        }
        dsp::Signal out(6, dsp::Sample{9.0, 9.0}); // stale lease contents
        SCOPED_TRACE(testing::Message() << "iteration " << iteration << " count " << count);
        if (amplify_and_forward_into(received, 1e-4, 1.0, out)) {
            ++forwarded_count;
            EXPECT_FALSE(out.empty());
            EXPECT_LE(out.size(), received.size());
        } else {
            EXPECT_TRUE(out.empty());
        }
    }
    EXPECT_GT(forwarded_count, 100u);
}

/// Bits with arbitrary byte values 2..255 mixed in: the modulator steps
/// any nonzero byte as a 1, the CRCs read bit 0, the scrambler XORs the
/// whole byte.
Bits hostile_bits(std::size_t count, Pcg32& rng)
{
    Bits bits = random_bits(count, rng);
    for (std::uint8_t& bit : bits) {
        if (rng.next_u32() % 4 == 0)
            bit = static_cast<std::uint8_t>(2 + below(rng, 254));
    }
    return bits;
}

/// The historical modulator: std::polar of the stepped phase per sample.
dsp::Signal reference_modulate(double amplitude, double initial_phase,
                               std::span<const std::uint8_t> bits)
{
    dsp::Signal out;
    double phase = initial_phase;
    out.push_back(std::polar(amplitude, phase));
    for (std::size_t n = 0; n < bits.size(); ++n) {
        const double stepped = phase + dsp::msk_phase_step(bits[n]);
        phase = n == 0 ? wrap_phase(stepped) : wrap_phase_bounded(stepped);
        out.push_back(std::polar(amplitude, phase));
    }
    return out;
}

bool same_bits(const dsp::Signal& a, const dsp::Signal& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t n = 0; n < a.size(); ++n) {
        if (std::bit_cast<std::uint64_t>(a[n].real()) != std::bit_cast<std::uint64_t>(b[n].real())
            || std::bit_cast<std::uint64_t>(a[n].imag())
                   != std::bit_cast<std::uint64_t>(b[n].imag()))
            return false;
    }
    return true;
}

TEST(HostileInput, ModulatorMatchesPerSampleLoop)
{
    constexpr double pi = std::numbers::pi;
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double phases[] = {0.0, pi, -pi, 3.0 * pi, 1e300, -1e300,
                             std::numeric_limits<double>::quiet_NaN(), inf, -inf};
    std::vector<std::size_t> lengths;
    for (std::size_t length = 0; length <= 17; ++length)
        lengths.push_back(length);
    for (std::size_t k = 0; k <= 8; ++k)
        lengths.push_back(2368 + k);
    Pcg32 rng{29};
    dsp::Signal got;
    for (const double amplitude : {1.0, 0.0, 1e-300}) {
        for (const double phase : phases) {
            const dsp::Msk_modulator modulator{amplitude, phase};
            for (const std::size_t length : lengths) {
                const Bits bits = hostile_bits(length, rng);
                modulator.modulate_into(bits, got);
                EXPECT_TRUE(same_bits(got, reference_modulate(amplitude, phase, bits)))
                    << "amplitude " << amplitude << " initial phase " << phase << " length "
                    << length;
            }
        }
    }
}

TEST(HostileInput, Crc32ReadsBitZeroOfEveryByteValue)
{
    // Every byte value 0..255 appears at every position of a 64-bit
    // step; crc32 must read bit 0 only, as the bitwise loop did, and
    // crc32_bytes must fold all 8 bits of each byte.
    const auto bitwise = [](std::span<const std::uint8_t> bits) {
        std::uint32_t crc = 0xffffffffu;
        for (const std::uint8_t bit : bits) {
            crc ^= static_cast<std::uint32_t>(bit & 1u);
            crc = (crc >> 1u) ^ (0xedb88320u & (0u - (crc & 1u)));
        }
        return ~crc;
    };
    Pcg32 rng{30};
    for (std::size_t rotate = 0; rotate < 64; rotate += 7) {
        Bits bytes(256 + rotate + below(rng, 70));
        for (std::size_t i = 0; i < bytes.size(); ++i)
            bytes[i] = static_cast<std::uint8_t>(i + rotate);
        EXPECT_EQ(crc32(bytes), bitwise(bytes)) << "rotate " << rotate;

        Bits lsb_first;
        for (const std::uint8_t byte : bytes) {
            for (int bit = 0; bit < 8; ++bit)
                lsb_first.push_back((byte >> bit) & 1u);
        }
        const std::string text(bytes.begin(), bytes.end());
        EXPECT_EQ(crc32_bytes(text), bitwise(lsb_first)) << "rotate " << rotate;
    }
}

TEST(HostileInput, ScramblerWrapsLikeTheLfsrOnLongInput)
{
    // Past 65,535 bits the keystream wraps, as the LFSR itself does;
    // bytes other than 0/1 keep their high bits (the XOR touches bit 0).
    Pcg32 rng{31};
    for (const std::size_t length : {std::size_t{65534}, std::size_t{65535},
                                     std::size_t{65536}, std::size_t{70000}}) {
        Bits bits(length);
        for (std::uint8_t& byte : bits)
            byte = static_cast<std::uint8_t>(rng.next_u32());
        Bits want(length);
        std::uint16_t lfsr = 0xACE1u; // the protocol seed
        for (std::size_t i = 0; i < length; ++i) {
            const auto feedback = static_cast<std::uint16_t>(
                ((lfsr >> 0u) ^ (lfsr >> 2u) ^ (lfsr >> 3u) ^ (lfsr >> 5u)) & 1u);
            lfsr = static_cast<std::uint16_t>((lfsr >> 1u) | (feedback << 15u));
            want[i] = static_cast<std::uint8_t>(bits[i] ^ feedback);
        }
        EXPECT_EQ(dsp::scramble(bits), want) << "length " << length;
    }
}

/// One round for the ANC receiver: the stream it hears, the frames its
/// buffer holds, and the payloads that were really sent.
struct Receiver_case {
    dsp::Signal stream;
    Sent_packet_buffer buffer{64};
    std::vector<Bits> sent;
};

/// A hostile round: an empty, 1-sample or shorter-than-a-pilot stream; a
/// stream of random and non-finite samples; or one packet or a collision
/// of two heard through link gains that may be 1e-300 or 1e300, then
/// possibly truncated or sprinkled with non-finite samples.  The buffer
/// holds nothing, a sent frame, or a bit-flipped, truncated or random
/// copy of one under its header.
Receiver_case hostile_receiver_case(Pcg32& rng, int iteration, double noise_power)
{
    Receiver_case trial;
    if (iteration < 3 || rng.next_u32() % 8 == 0) {
        const std::size_t count = iteration < 2 ? static_cast<std::size_t>(iteration)
                                                : below(rng, phy::pilot_length);
        trial.stream = hostile_samples(count, rng);
        return trial;
    }
    if (rng.next_u32() % 8 == 0) {
        trial.stream = hostile_samples(below(rng, 2000), rng);
        return trial;
    }

    const phy::Modem modem;
    const double extreme_gains[] = {1e-300, 1e300};
    const std::size_t senders = rng.next_u32() % 4 == 0 ? 1 : 2;
    Stored_frame frames[2];
    std::size_t start = below(rng, 64);
    for (std::size_t s = 0; s < senders; ++s) {
        phy::Frame_header header;
        header.src = static_cast<std::uint8_t>(s == 0 ? 1 : 3);
        header.dst = static_cast<std::uint8_t>(s == 0 ? 3 : 1);
        header.seq = static_cast<std::uint16_t>(rng.next_u32());
        header.payload_bits = static_cast<std::uint16_t>(64 + below(rng, 400));
        const Bits payload = random_bits(header.payload_bits, rng);
        frames[s] = {header, modem.frame_bits(header, payload), payload};
        trial.sent.push_back(payload);

        dsp::Signal signal;
        modem.modulate_into(frames[s].frame_bits, 2.0 * std::numbers::pi * rng.next_double(),
                            signal);
        chan::Link_params link;
        link.gain = rng.next_u32() % 4 == 0 ? extreme_gains[below(rng, 2)]
                                            : 0.5 + rng.next_double();
        link.phase = 2.0 * std::numbers::pi * rng.next_double();
        link.phase_drift = (rng.next_double() - 0.5) * 0.006;
        chan::Link_channel{link}.apply_onto(signal, start, trial.stream);
        start += trigger_slot_symbols + below(rng, 300);
    }
    trial.stream.resize(trial.stream.size() + 64);
    chan::Awgn{noise_power, rng.fork(1)}.add_in_place(trial.stream);
    switch (rng.next_u32() % 4) {
    case 0: trial.stream.resize(below(rng, trial.stream.size() + 1)); break;
    case 1:
        for (dsp::Sample& y : trial.stream)
            if (rng.next_u32() % 16 == 0)
                y = hostile_samples(1, rng)[0];
        break;
    default: break;
    }

    Stored_frame known = frames[below(rng, senders)];
    switch (rng.next_u32() % 5) {
    case 0: return trial; // knows nothing
    case 1: break;        // the frame as sent
    case 2: flip_some(known.frame_bits, rng); break;
    case 3: known.frame_bits.resize(below(rng, known.frame_bits.size() + 1)); break;
    default: known.frame_bits = random_bits(below(rng, 2 * known.frame_bits.size()), rng); break;
    }
    trial.buffer.store(known);
    return trial;
}

TEST(HostileInput, AncReceiverBoundedAndFabricatesNoCleanPacket)
{
    // A receive makes a handful of pilot scans (head, tail, capture, the
    // unknown pilot and its mirrored tail copy); a scan count past this
    // means the search loops ran away.
    constexpr std::uint64_t max_pilot_scans = 16;
    const double noise_power = chan::noise_power_for_snr_db(25.0);
    obs::Recorder recorder;
    const obs::Recorder::Bind bind{recorder};
    std::size_t statuses[5] = {};
    Pcg32 rng{0xa9c4ecu};
    for (const dsp::Math_profile profile : {dsp::Math_profile::exact,
                                            dsp::Math_profile::fast}) {
        const Anc_receiver receiver{Anc_receiver_config{}, noise_power, profile};
        for (int iteration = 0; iteration < 1000; ++iteration) {
            const Receiver_case trial = hostile_receiver_case(rng, iteration, noise_power);
            SCOPED_TRACE(testing::Message() << "iteration " << iteration << " samples "
                                            << trial.stream.size() << " senders "
                                            << trial.sent.size());
            recorder.begin_task();
            const Receive_outcome outcome = receiver.receive(trial.stream, trial.buffer);
            const obs::Counters& counters = recorder.task().counters;
            const std::uint64_t scans = counters[obs::Counter::pilot_searches]
                                        + counters[obs::Counter::pilot_degenerate];
            EXPECT_LE(scans, max_pilot_scans);
            ++statuses[static_cast<std::size_t>(outcome.status)];
            if (outcome.status == Receive_status::clean) {
                ASSERT_TRUE(outcome.frame.has_value());
                EXPECT_NE(std::find(trial.sent.begin(), trial.sent.end(),
                                    outcome.frame->payload),
                          trial.sent.end())
                    << "a clean packet nobody sent";
            }
        }
    }
    // Every outcome was reached, so each path above ran on hostile input.
    EXPECT_GT(statuses[static_cast<std::size_t>(Receive_status::no_packet)], 100u);
    EXPECT_GT(statuses[static_cast<std::size_t>(Receive_status::clean)], 100u);
    EXPECT_GT(statuses[static_cast<std::size_t>(Receive_status::decoded_interference)], 100u);
    EXPECT_GT(statuses[static_cast<std::size_t>(Receive_status::forward_candidate)], 10u);
    EXPECT_GT(statuses[static_cast<std::size_t>(Receive_status::failed)], 100u);
}

} // namespace
} // namespace anc
