// Link_channel reads every per-sample rotation from a memoised per-link
// rotor stream.  These tests transcribe the historical per-sample loop
// (one std::polar per sample) and require every output sample to match
// it bit for bit — across block lengths, fading epochs, growing and
// shrinking signal lengths, and offsets.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "channel/link.h"
#include "util/rng.h"

namespace anc::chan {
namespace {

dsp::Signal random_signal(std::size_t size, std::uint64_t seed)
{
    Pcg32 rng{seed};
    dsp::Signal signal(size);
    for (dsp::Sample& sample : signal)
        sample = {rng.next_gaussian(), rng.next_gaussian()};
    return signal;
}

void expect_same_bits(const dsp::Signal& got, const dsp::Signal& want)
{
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

// ---- the historical loops, transcribed -----------------------------------

/// Exact apply_onto: one std::polar per sample, times the block's fade
/// under rayleigh_block.
void reference_exact_onto(const Link_channel& link, const dsp::Signal& signal,
                          std::size_t at, dsp::Signal& acc, std::uint64_t epoch)
{
    const Link_params& p = link.params();
    const std::size_t begin = at + p.delay;
    if (acc.size() < begin + signal.size())
        acc.resize(begin + signal.size());
    dsp::Sample* out = acc.data() + begin;
    if (p.gain_model == Gain_model::fixed) {
        for (std::size_t n = 0; n < signal.size(); ++n) {
            const double rotation = p.phase + p.phase_drift * static_cast<double>(n);
            out[n] += signal[n] * std::polar(p.gain, rotation);
        }
        return;
    }
    const std::size_t block_len = p.coherence_block == 0 ? signal.size() : p.coherence_block;
    for (std::size_t begin_n = 0; begin_n < signal.size(); begin_n += block_len) {
        const dsp::Sample fade = link.block_gain(epoch, begin_n / block_len);
        const std::size_t end_n = std::min(begin_n + block_len, signal.size());
        for (std::size_t n = begin_n; n < end_n; ++n) {
            const double rotation = p.phase + p.phase_drift * static_cast<double>(n);
            out[n] += signal[n] * std::polar(p.gain, rotation) * fade;
        }
    }
}

Link_params link_params(Gain_model model, std::size_t block, double drift)
{
    Link_params params;
    params.gain = 0.83;
    params.phase = -2.41;
    params.delay = 3;
    params.phase_drift = drift;
    params.gain_model = model;
    params.coherence_block = block;
    params.fading_seed = 0x5eed;
    return params;
}

/// A nonzero accumulator longer than `at` so both the add-onto and the
/// grow-by-resize parts of apply_onto are exercised.
dsp::Signal prefilled_acc(std::size_t size)
{
    return random_signal(size, 77);
}

// ---- tests ---------------------------------------------------------------

TEST(LinkRotorStream, ExactMatchesPerSamplePolarAcrossBlocksAndEpochs)
{
    // Long enough for several of the grid's default 4096-sample coherence
    // blocks, and for 4099-sample blocks, whose starts leave the lane
    // kernel's block grid.
    const dsp::Signal signal = random_signal(9001, 1);
    for (const double drift : {0.0, 0.0023, -0.0017}) {
        std::vector<Link_params> cases{link_params(Gain_model::fixed, 0, drift)};
        for (const std::size_t block : {0u, 1u, 7u, 300u, 4096u, 4099u})
            cases.push_back(link_params(Gain_model::rayleigh_block, block, drift));
        for (const Link_params& params : cases) {
            const Link_channel link{params};
            for (const std::uint64_t epoch : {0u, 1u}) {
                for (const std::size_t at : {0u, 45u}) {
                    SCOPED_TRACE(testing::Message()
                                 << "drift " << drift << " block " << params.coherence_block
                                 << " rayleigh "
                                 << (params.gain_model == Gain_model::rayleigh_block)
                                 << " epoch " << epoch << " at " << at);
                    dsp::Signal got = prefilled_acc(at + 100);
                    dsp::Signal want = got;
                    link.apply_onto(signal, at, got, epoch);
                    reference_exact_onto(link, signal, at, want, epoch);
                    expect_same_bits(got, want);
                }
            }
        }
    }
}

TEST(LinkRotorStream, ExactApplyMatchesPerSamplePolar)
{
    // Onto an empty buffer, the way a caller takes one link's output
    // alone: apply_onto grows it from nothing.
    const dsp::Signal signal = random_signal(1500, 2);
    for (const double drift : {0.0, 0.0023}) {
        std::vector<Link_params> cases{link_params(Gain_model::fixed, 0, drift)};
        for (const std::size_t block : {0u, 1u, 7u, 300u})
            cases.push_back(link_params(Gain_model::rayleigh_block, block, drift));
        for (const Link_params& params : cases) {
            const Link_channel link{params};
            dsp::Signal want(params.delay + signal.size(), dsp::Sample{0.0, 0.0});
            reference_exact_onto(link, signal, 0, want, 1);
            dsp::Signal got;
            link.apply_onto(signal, 0, got, 1);
            expect_same_bits(got, want);
        }
    }
}

TEST(LinkRotorStream, GrowingThenShrinkingLengthsReuseTheStream)
{
    for (const Gain_model model : {Gain_model::fixed, Gain_model::rayleigh_block}) {
        const Link_channel link{link_params(model, 7, 0.0031)};
        std::uint64_t seed = 10;
        for (const std::size_t length : {100u, 2500u, 37u, 3000u, 1u, 0u, 2999u}) {
            SCOPED_TRACE(testing::Message() << "length " << length);
            const dsp::Signal signal = random_signal(length, ++seed);
            dsp::Signal got = prefilled_acc(20);
            dsp::Signal want = got;
            link.apply_onto(signal, 11, got, seed % 2);
            reference_exact_onto(link, signal, 11, want, seed % 2);
            expect_same_bits(got, want);
        }
    }
}

} // namespace
} // namespace anc::chan
