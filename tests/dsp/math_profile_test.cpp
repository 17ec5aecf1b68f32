// The Math_profile seam: the enum round-trips through its string form
// (the emitters' profile tag), and only the two seams — noise and the
// interference decoder — read it: every other stage produces the same
// bytes under both profiles.

#include "dsp/math_profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "channel/medium.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

Bits random_bits_for(std::size_t count, std::uint64_t seed)
{
    Pcg32 rng{seed, 5};
    Bits bits;
    bits.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        bits.push_back((rng.next_double() < 0.5) ? 1 : 0);
    return bits;
}

TEST(MathProfile, StringRoundTrip)
{
    EXPECT_STREQ(to_string(Math_profile::exact), "exact");
    EXPECT_STREQ(to_string(Math_profile::fast), "fast");
    EXPECT_EQ(math_profile_from_string("exact"), Math_profile::exact);
    EXPECT_EQ(math_profile_from_string("fast"), Math_profile::fast);
    // The former `simd` profile was byte-identical to fast; its name
    // stays accepted as an alias.
    EXPECT_EQ(math_profile_from_string("simd"), Math_profile::fast);
    EXPECT_THROW(math_profile_from_string("fastest"), std::invalid_argument);
    EXPECT_THROW(math_profile_from_string("avx2"), std::invalid_argument);
}

TEST(MathProfile, ProfileListParsing)
{
    using List = std::vector<Math_profile>;
    EXPECT_EQ(math_profiles_from_string("exact"), List{Math_profile::exact});
    EXPECT_EQ(math_profiles_from_string("simd"), List{Math_profile::fast});
    EXPECT_EQ(math_profiles_from_string("both"),
              (List{Math_profile::exact, Math_profile::fast}));
    EXPECT_EQ(math_profiles_from_string("fast,exact,"),
              (List{Math_profile::fast, Math_profile::exact}));
    EXPECT_THROW(math_profiles_from_string(""), std::invalid_argument);
    EXPECT_THROW(math_profiles_from_string(","), std::invalid_argument);
    EXPECT_THROW(math_profiles_from_string("all"), std::invalid_argument);
    EXPECT_THROW(math_profiles_from_string("exact,fastest"), std::invalid_argument);
}

TEST(MathProfile, NoiseFreeMediumCarriesMskFramesByteIdentically)
{
    // With the noise seam shut (noise_power 0) and no decoder in the
    // path, the profile must not reach a single bit: MSK frames over a
    // drifting fixed link and a rayleigh_block link, alone and colliding,
    // arrive byte-identical under exact and fast.
    chan::Link_params drifting;
    drifting.gain = 0.9;
    drifting.phase = 1.3;
    drifting.phase_drift = 0.0021;
    chan::Link_params faded;
    faded.gain = 0.7;
    faded.phase = -0.6;
    faded.phase_drift = -0.0013;
    faded.gain_model = chan::Gain_model::rayleigh_block;
    faded.coherence_block = 300;
    faded.fading_seed = 0xfade;

    Signal frame_a;
    Signal frame_b;
    Msk_modulator{1.0, 0.4}.modulate_into(random_bits_for(1500, 1), frame_a);
    Msk_modulator{1.0, 2.2}.modulate_into(random_bits_for(1200, 2), frame_b);
    const std::vector<chan::Transmission> rounds[] = {
        {{1, frame_a, 2}},
        {{2, frame_b, 0}},
        {{1, frame_a, 2}, {2, frame_b, 140}},
    };

    const auto receive_all = [&](Math_profile profile) {
        chan::Medium medium{0.0, Pcg32{5, 6}, profile};
        medium.set_link(1, 3, drifting);
        medium.set_link(2, 3, faded);
        std::vector<Signal> heard;
        for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
            medium.set_fading_epoch(epoch);
            for (const auto& on_air : rounds) {
                heard.emplace_back();
                medium.receive_into(3, on_air, 16, heard.back());
            }
        }
        return heard;
    };
    const std::vector<Signal> exact = receive_all(Math_profile::exact);
    const std::vector<Signal> fast = receive_all(Math_profile::fast);
    ASSERT_EQ(exact.size(), fast.size());
    for (std::size_t r = 0; r < exact.size(); ++r) {
        ASSERT_EQ(exact[r].size(), fast[r].size()) << "round " << r;
        EXPECT_EQ(std::memcmp(exact[r].data(), fast[r].data(),
                              exact[r].size() * sizeof(Sample)),
                  0)
            << "round " << r;
    }
}

} // namespace
} // namespace anc::dsp
