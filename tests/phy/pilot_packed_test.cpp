// The bit-domain pilot search (phy/pilot.h) claims to be a pure speedup
// of the historical byte-per-bit scan: identical Pattern_match — both
// position AND error count — for every (haystack, pattern, from, to,
// max_errors).  find_pattern_scalar (find_pattern_reference.h) is a
// frozen transcription of that historical loop, so these property tests
// randomize over bit strings and compare the packed scan against it
// exactly, leaning on the edges where the packing could plausibly
// diverge:
//
//   * pattern lengths straddling the 64-bit word boundary (63/64/65),
//   * from/to clamping, including from beyond the last fitting start,
//   * max_errors 0 (early break on first perfect match), tiny, and
//     pattern-length (everything matches; earliest minimum must win),
//   * planted tie positions with equal error counts.

#include "phy/pilot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "util/bits.h"
#include "util/rng.h"

#include "find_pattern_reference.h"

namespace anc::phy {
namespace {

void expect_same_match(const std::optional<Pattern_match>& packed,
                       const std::optional<Pattern_match>& reference,
                       const char* what)
{
    ASSERT_EQ(packed.has_value(), reference.has_value()) << what;
    if (packed) {
        EXPECT_EQ(packed->position, reference->position) << what;
        EXPECT_EQ(packed->errors, reference->errors) << what;
    }
}

TEST(PilotPacked, RandomizedAgainstScalarReference)
{
    Pcg32 rng{0x5ca1ab1e, 5};
    // Pattern lengths around the word boundary plus short/odd sizes; the
    // 2-word stride (65..127) and 1-word stride (<= 63) are both hit.
    const std::size_t pattern_lengths[] = {1, 3, 8, 17, 63, 64, 65, 96, 127};
    const std::size_t haystack_lengths[] = {1, 7, 63, 64, 65, 130, 512, 2304};
    for (const std::size_t pat_len : pattern_lengths) {
        const Bits pattern = random_bits(pat_len, rng);
        const Packed_pattern packed_pattern{pattern};
        for (const std::size_t hay_len : haystack_lengths) {
            const Bits bits = random_bits(hay_len, rng);
            const Packed_bits packed_bits{bits};
            const std::size_t max_errors_cases[] = {0, 1, 8, pat_len};
            for (const std::size_t max_errors : max_errors_cases) {
                // Full span, a clamped-past-the-end `to`, an interior
                // window, and a from beyond the last fitting start.
                const std::size_t spans[][2] = {
                    {0, hay_len},
                    {0, hay_len * 2 + 7},
                    {hay_len / 4, (3 * hay_len) / 4},
                    {hay_len + 1, hay_len + 5},
                };
                for (const auto& span : spans) {
                    const auto reference = test::find_pattern_scalar(
                        bits, pattern, span[0], span[1], max_errors);
                    const auto via_span = find_pattern(bits, pattern, span[0],
                                                       span[1], max_errors);
                    const auto via_packed =
                        find_pattern(packed_bits, packed_pattern, span[0],
                                     span[1], max_errors);
                    expect_same_match(via_span, reference, "span overload");
                    expect_same_match(via_packed, reference, "packed overload");
                }
            }
        }
    }
}

TEST(PilotPacked, TiePositionsResolveIdentically)
{
    // Two identical planted copies of the pattern: both positions have
    // zero errors and the scan must return the earlier one.  Then with
    // max_errors large enough that *every* position qualifies, the
    // earliest minimum must still win.
    Pcg32 rng{0x7e57, 9};
    const Bits pattern = random_bits(64, rng);
    Bits bits = random_bits(400, rng);
    for (std::size_t i = 0; i < 64; ++i) {
        bits[100 + i] = pattern[i];
        bits[260 + i] = pattern[i];
    }
    const Packed_bits packed_bits{bits};
    const Packed_pattern packed_pattern{pattern};
    for (const std::size_t max_errors : {std::size_t{0}, std::size_t{64}}) {
        const auto reference =
            test::find_pattern_scalar(bits, pattern, 0, bits.size(), max_errors);
        const auto packed = find_pattern(packed_bits, packed_pattern, 0,
                                         bits.size(), max_errors);
        ASSERT_TRUE(reference.has_value());
        EXPECT_EQ(reference->position, 100u);
        expect_same_match(packed, reference, "tie");
    }
}

TEST(PilotPacked, CachedPilotPatternsMatchAdHocPacking)
{
    // The span overload routes the two protocol patterns through the
    // per-process packed caches (pointer identity); the result must be
    // the same as packing those bits fresh.
    Pcg32 rng{0xcafe, 2};
    Bits bits = random_bits(600, rng);
    const Bits& pilot = pilot_sequence();
    const Bits& mirror = pilot_mirrored();
    for (std::size_t i = 0; i < pilot_length; ++i) {
        bits[37 + i] = pilot[i];
        bits[450 + i] = mirror[i];
    }
    const Packed_bits packed_bits{bits};
    for (const Bits* pattern : {&pilot, &mirror}) {
        const auto reference =
            test::find_pattern_scalar(bits, *pattern, 0, bits.size(), 6);
        const auto cached = find_pattern(bits, *pattern, 0, bits.size(), 6);
        const auto fresh = find_pattern(packed_bits, Packed_pattern{*pattern}, 0,
                                        bits.size(), 6);
        expect_same_match(cached, reference, "cached pattern");
        expect_same_match(fresh, reference, "fresh packing");
    }
    // find_pilot delegates to the same machinery.
    const auto via_find_pilot = find_pilot(bits, 6);
    const auto pilot_reference =
        test::find_pattern_scalar(bits, pilot, 0, bits.size() - pilot_length, 6);
    expect_same_match(via_find_pilot, pilot_reference, "find_pilot");
}

TEST(PilotPacked, DegenerateCallsReturnNothing)
{
    Pcg32 rng{0xd09, 1};
    const Bits bits = random_bits(32, rng);
    const Bits pattern = random_bits(64, rng);
    // Haystack shorter than the pattern, and an empty pattern.
    EXPECT_FALSE(find_pattern(bits, pattern, 0, bits.size(), 8).has_value());
    EXPECT_FALSE(find_pattern(bits, Bits{}, 0, bits.size(), 8).has_value());
    const Packed_bits packed_bits{bits};
    const Packed_pattern packed_pattern{pattern};
    EXPECT_FALSE(
        find_pattern(packed_bits, packed_pattern, 0, bits.size(), 8).has_value());
    EXPECT_FALSE(find_pattern(packed_bits, Packed_pattern{Bits{}}, 0, bits.size(), 8)
                     .has_value());
}

} // namespace
} // namespace anc::phy
