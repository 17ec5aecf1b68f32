#include "channel/awgn.h"

#include <gtest/gtest.h>

#include <limits>

#include "dsp/energy_scan.h"
#include "util/db.h"
#include "util/rng.h"
#include "util/stats.h"

namespace anc::chan {
namespace {

TEST(Awgn, NoisePowerMatchesRequest)
{
    Awgn noise{0.25, Pcg32{301}};
    Running_stats energy;
    for (int i = 0; i < 200000; ++i)
        energy.add(std::norm(noise.sample()));
    EXPECT_NEAR(energy.mean(), 0.25, 0.005);
}

TEST(Awgn, ComponentsAreIndependentAndBalanced)
{
    Awgn noise{1.0, Pcg32{302}};
    Running_stats re;
    Running_stats im;
    double cross = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const dsp::Sample s = noise.sample();
        re.add(s.real());
        im.add(s.imag());
        cross += s.real() * s.imag();
    }
    EXPECT_NEAR(re.mean(), 0.0, 0.01);
    EXPECT_NEAR(im.mean(), 0.0, 0.01);
    EXPECT_NEAR(re.variance(), 0.5, 0.01);
    EXPECT_NEAR(im.variance(), 0.5, 0.01);
    EXPECT_NEAR(cross / n, 0.0, 0.01);
}

TEST(Awgn, ZeroPowerIsNoiseless)
{
    Awgn noise{0.0, Pcg32{303}};
    dsp::Signal signal(100, dsp::Sample{1.0, 1.0});
    noise.add_in_place(signal);
    for (const dsp::Sample& s : signal)
        EXPECT_EQ(s, (dsp::Sample{1.0, 1.0}));
}

TEST(Awgn, RealizesRequestedSnr)
{
    const double snr_db = 25.0;
    const double noise_power = noise_power_for_snr_db(snr_db, 1.0);
    dsp::Signal received(50000, dsp::Sample{1.0, 0.0}); // unit power
    Awgn noise{noise_power, Pcg32{304}};
    noise.add_in_place(received);
    const double rx_power = dsp::mean_energy(received);
    // Received power = signal + noise power.
    EXPECT_NEAR(rx_power, 1.0 + noise_power, 0.01);
    EXPECT_NEAR(to_db(1.0 / noise_power), snr_db, 1e-9);
}

TEST(Awgn, NegativePowerRejected)
{
    EXPECT_THROW((Awgn{-1.0, Pcg32{305}}), std::invalid_argument);
    EXPECT_THROW((Awgn{std::numeric_limits<double>::quiet_NaN(), Pcg32{305}}),
                 std::invalid_argument);
}

TEST(Awgn, NoiseForSnrHelper)
{
    EXPECT_NEAR(noise_power_for_snr_db(0.0), 1.0, 1e-12);
    EXPECT_NEAR(noise_power_for_snr_db(10.0), 0.1, 1e-12);
    EXPECT_NEAR(noise_power_for_snr_db(20.0, 4.0), 0.04, 1e-12);
}

} // namespace
} // namespace anc::chan
