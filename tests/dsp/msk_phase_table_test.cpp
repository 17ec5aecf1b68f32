// The MSK modulator walks a phase-state table instead of calling
// std::polar per sample.  This test transcribes the historical
// per-sample loop and requires every sample to match it bit for bit,
// over awkward initial phases, lengths and bit patterns.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numbers>
#include <vector>

#include "dsp/msk.h"
#include "util/bits.h"
#include "util/phase.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

constexpr double pi = std::numbers::pi;

Signal reference_modulate(double amplitude, double initial_phase,
                          const std::vector<std::uint8_t>& bits)
{
    Signal out;
    double phase = initial_phase;
    out.push_back(std::polar(amplitude, phase));
    bool unbounded = true;
    for (const std::uint8_t bit : bits) {
        const double stepped = phase + msk_phase_step(bit);
        phase = unbounded ? wrap_phase(stepped) : wrap_phase_bounded(stepped);
        unbounded = false;
        out.push_back(std::polar(amplitude, phase));
    }
    return out;
}

std::vector<std::vector<std::uint8_t>> bit_patterns(std::size_t length)
{
    Pcg32 rng{length + 1};
    std::vector<std::uint8_t> alternating(length);
    for (std::size_t n = 0; n < length; ++n)
        alternating[n] = n % 2;
    return {std::vector<std::uint8_t>(length, 1), std::vector<std::uint8_t>(length, 0),
            alternating, random_bits(length, rng)};
}

TEST(MskPhaseTable, ExactModulatorMatchesPerSamplePolar)
{
    // The walk takes 8 bits per step and the rest one at a time, so the
    // lengths cover every remainder: 0-17 bits, and a 2,048-bit
    // payload's 2,368-bit frame plus 0-8.
    std::vector<std::size_t> lengths{2304, 100000};
    for (std::size_t length = 0; length <= 17; ++length)
        lengths.push_back(length);
    for (std::size_t k = 0; k <= 8; ++k)
        lengths.push_back(2368 + k);
    Signal got; // reused across cases, as a leased buffer would be
    for (const double initial_phase : {0.0, pi, -pi, 2.0 * pi, 3.0 * pi, 7.5, -20.1}) {
        const Msk_modulator modulator{0.7, initial_phase};
        for (const std::size_t length : lengths) {
            for (const std::vector<std::uint8_t>& bits : bit_patterns(length)) {
                SCOPED_TRACE(testing::Message() << "initial phase " << initial_phase
                                                << " length " << length);
                modulator.modulate_into(bits, got);
                const Signal want = reference_modulate(0.7, initial_phase, bits);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t n = 0; n < got.size(); ++n) {
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[n].real()),
                              std::bit_cast<std::uint64_t>(want[n].real()))
                        << "sample " << n;
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[n].imag()),
                              std::bit_cast<std::uint64_t>(want[n].imag()))
                        << "sample " << n;
                }
            }
        }
    }
}

TEST(MskPhaseTable, NonBinaryBytesStepLikeOnes)
{
    // msk_phase_step treats any nonzero byte as a 1; the table must too.
    const std::vector<std::uint8_t> bits{2, 0, 255, 1, 0, 7, 7, 0};
    const Msk_modulator modulator{1.0, 0.3};
    Signal signal;
    modulator.modulate_into(bits, signal);
    EXPECT_EQ(signal, reference_modulate(1.0, 0.3, bits));
}

} // namespace
} // namespace anc::dsp
