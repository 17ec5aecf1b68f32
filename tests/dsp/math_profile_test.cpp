// The Math_profile seam at the DSP layer: the exact arm must be the
// historical code verbatim, the fast arm must stay within tight absolute
// bounds of it, and the enum round-trips through its string form (the
// emitters' profile tag).

#include "dsp/math_profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dsp/dpsk.h"
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
        bits.push_back(rng.next_bernoulli(0.5) ? 1 : 0);
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

TEST(MathProfile, DispatchHelpersAgreeAcrossProfiles)
{
    Pcg32 rng{31, 9};
    for (int i = 0; i < 20000; ++i) {
        const double y = (rng.next_double() - 0.5) * 10.0;
        const double x = (rng.next_double() - 0.5) * 10.0;
        EXPECT_EQ(profile_atan2(Math_profile::exact, y, x), std::atan2(y, x));
        EXPECT_NEAR(profile_atan2(Math_profile::fast, y, x), std::atan2(y, x), 2e-11);
        const double angle = (rng.next_double() - 0.5) * 20.0;
        const Sample exact = profile_polar(Math_profile::exact, 2.0, angle);
        const Sample fast = profile_polar(Math_profile::fast, 2.0, angle);
        EXPECT_EQ(exact, std::polar(2.0, angle));
        EXPECT_NEAR(std::abs(fast - exact), 0.0, 1e-13);
    }
}

TEST(MathProfile, FastMskModulationStaysOnTheExactEnvelope)
{
    const Bits bits = random_bits_for(4096, 0xfeed);
    const Msk_modulator exact{0.8, 1.234, Math_profile::exact};
    const Msk_modulator fast{0.8, 1.234, Math_profile::fast};
    const Signal a = exact.modulate(bits);
    const Signal b = fast.modulate(bits);
    ASSERT_EQ(a.size(), b.size());
    double max_dev = 0.0;
    const double envelope = std::norm(b[0]);
    EXPECT_NEAR(envelope, 0.8 * 0.8, 1e-15);
    for (std::size_t n = 0; n < a.size(); ++n) {
        max_dev = std::max(max_dev, std::abs(a[n] - b[n]));
        // The +-i rotation is lossless (a component swap/negate), so the
        // fast envelope is *exactly* constant across the whole frame.
        EXPECT_EQ(std::norm(b[n]), envelope);
    }
    // The fast rotations are exact; the deviation is the exact path's
    // own accumulated wrap/step rounding plus the initial sincos ULP.
    EXPECT_LT(max_dev, 1e-12);
}

TEST(MathProfile, ExactPolarFillMatchesStdPolarByteForByte)
{
    Pcg32 rng{8, 2};
    std::vector<double> phases;
    for (int i = 0; i < 1000; ++i)
        phases.push_back((rng.next_double() - 0.5) * 12.0);
    Signal exact;
    polar_into(phases, 1.7, Math_profile::exact, exact);
    ASSERT_EQ(exact.size(), phases.size());
    for (std::size_t i = 0; i < phases.size(); ++i)
        EXPECT_EQ(exact[i], std::polar(1.7, phases[i]));
    Signal fast;
    polar_into(phases, 1.7, Math_profile::fast, fast);
    for (std::size_t i = 0; i < phases.size(); ++i)
        EXPECT_NEAR(std::abs(fast[i] - exact[i]), 0.0, 1e-13);
}

TEST(MathProfile, FastDqpskRoundTripsThroughFastDemodulation)
{
    const Bits bits = random_bits_for(2048, 0xd0d0);
    const Dqpsk_modulator modulator{1.0, 0.4, Math_profile::fast};
    const Dqpsk_demodulator demodulator{Math_profile::fast};
    EXPECT_EQ(demodulator.demodulate(modulator.modulate(bits)), bits);
}

TEST(MathProfile, FastMskDemodulatesItsOwnModulation)
{
    const Bits bits = random_bits_for(4096, 0xbead);
    const Msk_modulator modulator{1.0, 0.9, Math_profile::fast};
    const Msk_demodulator demodulator;
    EXPECT_EQ(demodulator.demodulate(modulator.modulate(bits)), bits);
}

} // namespace
} // namespace anc::dsp
