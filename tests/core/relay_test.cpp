#include "core/relay.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "dsp/energy_scan.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/rng.h"

namespace anc {
namespace {

TEST(Relay, AmplifyNormalizesPower)
{
    // A weak received mix must be re-amplified to the router's transmit
    // power P (§7.5 / Appendix C).
    Pcg32 rng{701};
    const Bits bits = random_bits(500, rng);
    const dsp::Msk_modulator modulator{0.1, 0.0}; // heavily attenuated
    dsp::Signal received;
    modulator.modulate_into(bits, received);
    const double noise_power = 1e-5;
    chan::Awgn noise{noise_power, Pcg32{702}};
    noise.add_in_place(received);

    dsp::Signal forwarded;
    ASSERT_TRUE(amplify_and_forward_into(received, noise_power, 1.0, forwarded));
    EXPECT_NEAR(dsp::mean_energy(forwarded), 1.0, 0.05);
}

TEST(Relay, AmplifyTrimsSilence)
{
    Pcg32 rng{703};
    const Bits bits = random_bits(300, rng);
    const dsp::Msk_modulator modulator{1.0, 0.0};
    dsp::Signal stream(400, dsp::Sample{0.0, 0.0});
    dsp::Signal burst;
    modulator.modulate_into(bits, burst);
    dsp::accumulate(stream, burst, 400);
    stream.resize(stream.size() + 200, dsp::Sample{0.0, 0.0});
    const double noise_power = 1e-4;
    chan::Awgn noise{noise_power, Pcg32{704}};
    noise.add_in_place(stream);

    dsp::Signal forwarded;
    ASSERT_TRUE(amplify_and_forward_into(stream, noise_power, 1.0, forwarded));
    // The active region is ~301 samples; the trimmed forward should be
    // close to that, not the 901-sample padded stream.
    EXPECT_LT(forwarded.size(), 400u);
    EXPECT_GT(forwarded.size(), 250u);
    // A stale lease is overwritten, not appended to.
    dsp::Signal dirty(1000, dsp::Sample{9.0, -9.0});
    ASSERT_TRUE(amplify_and_forward_into(stream, noise_power, 1.0, dirty));
    EXPECT_EQ(dirty, forwarded);
}

TEST(Relay, AmplifyNothingWhenSilent)
{
    dsp::Signal silence(500, dsp::Sample{0.0, 0.0});
    chan::Awgn noise{1e-4, Pcg32{705}};
    noise.add_in_place(silence);
    dsp::Signal forwarded(7, dsp::Sample{1.0, 1.0}); // stale lease contents
    EXPECT_FALSE(amplify_and_forward_into(silence, 1e-4, 1.0, forwarded));
    EXPECT_TRUE(forwarded.empty());
}

TEST(Relay, AmplifiedNoiseRidesAlong)
{
    // The relay cannot separate noise from signal: after normalization the
    // in-band noise is amplified by the same factor — the low-SNR penalty
    // of §8.
    Pcg32 rng{706};
    const Bits bits = random_bits(2000, rng);
    const dsp::Msk_modulator modulator{0.1, 0.0};
    dsp::Signal received;
    modulator.modulate_into(bits, received);
    const double noise_power = 0.01; // SNR at relay = 0 dB
    chan::Awgn noise{noise_power, Pcg32{707}};
    noise.add_in_place(received);

    // At 0 dB the usual energy threshold would miss the packet; drop it
    // (the scenario is intentionally extreme to expose noise
    // amplification).
    phy::Packet_detector::Config low_threshold;
    low_threshold.energy_threshold_db = -3.0;
    dsp::Signal forwarded;
    ASSERT_TRUE(amplify_and_forward_into(received, noise_power, 1.0, forwarded, low_threshold));
    // Output power 1.0 is half signal, half amplified noise.
    const double gain = 1.0 / (0.1 * 0.1 + noise_power);
    const double amplified_noise = noise_power * gain;
    EXPECT_NEAR(amplified_noise, 0.5, 0.05);
}

} // namespace
} // namespace anc
