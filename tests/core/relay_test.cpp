#include "core/relay.h"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "dsp/energy_scan.h"
#include "dsp/msk.h"
#include "util/rng.h"

#include "support/signal_ops.h"

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
    test::accumulate(stream, burst, 400);
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
    // of §8.  At 17 dB the standard detector sees the packet.
    Pcg32 rng{706};
    const Bits bits = random_bits(2000, rng);
    const double signal_power = 0.1 * 0.1;
    const double noise_power = chan::noise_power_for_snr_db(17.0, signal_power);
    dsp::Signal burst;
    dsp::Msk_modulator{0.1, 0.0}.modulate_into(bits, burst);
    dsp::Signal clean(300, dsp::Sample{0.0, 0.0});
    test::accumulate(clean, burst, 300);
    clean.resize(clean.size() + 300, dsp::Sample{0.0, 0.0});
    dsp::Signal received = clean;
    chan::Awgn noise{noise_power, Pcg32{707}};
    noise.add_in_place(received);

    dsp::Signal forwarded;
    ASSERT_TRUE(amplify_and_forward_into(received, noise_power, 1.0, forwarded));
    ASSERT_GT(forwarded.size(), 1500u);
    ASSERT_LE(forwarded.size(), received.size());

    // The forward is a trimmed window of what the relay heard, times one
    // real gain g: find the window's start b.
    const auto scales_window = [&](std::size_t b, double g) {
        for (std::size_t k = 0; k < forwarded.size(); ++k)
            if (std::abs(forwarded[k] - g * received[b + k]) > 1e-12 * std::abs(forwarded[k]))
                return false;
        return true;
    };
    std::size_t b = 0;
    double g = 0.0;
    for (; b + forwarded.size() <= received.size(); ++b) {
        g = std::abs(forwarded[0]) / std::abs(received[b]);
        if (scales_window(b, g))
            break;
    }
    ASSERT_LE(b + forwarded.size(), received.size()) << "no window of `received` scales to it";

    // Noise and signal are scaled alike: the noise's share of the unit
    // forwarded power is n / (s + n).
    double window_noise = 0.0;
    for (std::size_t k = 0; k < forwarded.size(); ++k)
        window_noise += std::norm(received[b + k] - clean[b + k]);
    window_noise /= static_cast<double>(forwarded.size());
    const double want_share = noise_power / (signal_power + noise_power);
    EXPECT_NEAR(g * g * window_noise, want_share, 0.1 * want_share);
}

} // namespace
} // namespace anc
