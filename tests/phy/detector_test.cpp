#include "phy/detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "channel/awgn.h"
#include "channel/link.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/bits.h"
#include "util/db.h"
#include "util/rng.h"

namespace anc::phy {
namespace {

constexpr double noise_power = 0.01; // SNR 20 dB for unit signals

dsp::Signal noisy(dsp::Signal signal, std::uint64_t seed, double power = noise_power)
{
    chan::Awgn noise{power, Pcg32{seed}};
    noise.add_in_place(signal);
    return signal;
}

dsp::Signal msk_burst(std::size_t bits_count, std::uint64_t seed, double amplitude = 1.0)
{
    Pcg32 rng{seed};
    const Bits bits = random_bits(bits_count, rng);
    const dsp::Msk_modulator modulator{amplitude, 0.0};
    dsp::Signal signal;
    modulator.modulate_into(bits, signal);
    return signal;
}

TEST(PacketDetector, FindsPacketInNoise)
{
    dsp::Signal stream(200, dsp::Sample{0.0, 0.0});
    const dsp::Signal burst = msk_burst(300, 431);
    dsp::accumulate(stream, burst, 200);
    stream.resize(stream.size() + 150, dsp::Sample{0.0, 0.0});
    stream = noisy(std::move(stream), 432);

    const Packet_detector detector{noise_power};
    const auto bounds = detector.detect(stream);
    ASSERT_TRUE(bounds.has_value());
    EXPECT_NEAR(static_cast<double>(bounds->begin), 200.0, 20.0);
    EXPECT_NEAR(static_cast<double>(bounds->end), 501.0, 20.0);
}

TEST(PacketDetector, PureNoiseIsNoPacket)
{
    dsp::Signal stream(1000, dsp::Sample{0.0, 0.0});
    stream = noisy(std::move(stream), 433);
    const Packet_detector detector{noise_power};
    EXPECT_FALSE(detector.detect(stream).has_value());
}

TEST(PacketDetector, WeakSignalBelowThresholdIgnored)
{
    // A signal only 10 dB above noise must not trip a 20 dB threshold.
    dsp::Signal stream(100, dsp::Sample{0.0, 0.0});
    const dsp::Signal burst = msk_burst(200, 434, std::sqrt(noise_power * 10.0));
    dsp::accumulate(stream, burst, 100);
    stream = noisy(std::move(stream), 435);
    const Packet_detector detector{noise_power};
    EXPECT_FALSE(detector.detect(stream).has_value());
}

TEST(PacketDetector, ShortStreamHandled)
{
    const Packet_detector detector{noise_power};
    EXPECT_FALSE(detector.detect(dsp::Signal(4, dsp::Sample{1.0, 0.0})).has_value());
}

TEST(InterferenceDetector, CleanPacketNotInterfered)
{
    const dsp::Signal packet = noisy(msk_burst(600, 436), 437);
    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(packet);
    EXPECT_FALSE(report.interfered);
}

TEST(InterferenceDetector, CollisionDetectedWithOverlapRegion)
{
    // Packet A starts at 0; packet B (equal power) starts at 300.
    dsp::Signal mix = msk_burst(600, 438);
    chan::Link_channel{{1.0, 0.9}}.apply_onto(msk_burst(600, 439), 300, mix);
    mix = noisy(std::move(mix), 440);

    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(mix);
    ASSERT_TRUE(report.interfered);
    // Overlap is [300, 601); allow window-size slop.
    EXPECT_NEAR(static_cast<double>(report.overlap_begin), 300.0, 80.0);
    EXPECT_GT(report.overlap_end, report.overlap_begin + 200);
}

TEST(InterferenceDetector, WeakInterfererStillDetected)
{
    // SIR +6 dB (interferer at quarter power) must still trip the
    // detector at SNR 20 dB.
    dsp::Signal mix = msk_burst(600, 441);
    chan::Link_channel{{0.5, 1.7}}.apply_onto(msk_burst(600, 442), 200, mix);
    mix = noisy(std::move(mix), 443);
    const Interference_detector detector{noise_power};
    EXPECT_TRUE(detector.analyze(mix).interfered);
}

TEST(InterferenceDetector, ShortInputNotInterfered)
{
    const Interference_detector detector{noise_power};
    EXPECT_FALSE(detector.analyze(dsp::Signal(10, dsp::Sample{1.0, 0.0})).interfered);
}

TEST(InterferenceDetector, EnvelopeMergesDriftDips)
{
    // With a relative carrier-frequency offset, cos(theta - phi) sweeps
    // through zero and the collision's envelope goes momentarily
    // constant: the variance dips below threshold *inside* the overlap.
    // The detector must report one region spanning the dips, not the
    // longest fragment.
    Pcg32 rng{447};
    const Bits bits_a = random_bits(1600, rng);
    const Bits bits_b = random_bits(1600, rng);
    const dsp::Msk_modulator mod_a{1.0, 0.0};
    const dsp::Msk_modulator mod_b{0.95, 0.0};
    dsp::Signal mix;
    mod_a.modulate_into(bits_a, mix);
    dsp::Signal signal_b;
    mod_b.modulate_into(bits_b, signal_b);
    // drift 0.004 rad/sample: the relative phase crosses pi/2 multiple
    // times over 1600 samples.
    chan::Link_params drift;
    drift.gain = 1.0;
    drift.phase = 0.9;
    drift.phase_drift = 0.004;
    chan::Link_channel{drift}.apply_onto(signal_b, 200, mix);
    mix = noisy(std::move(mix), 448);

    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(mix);
    ASSERT_TRUE(report.interfered);
    // One region covering (almost) the whole true overlap [200, 1601).
    EXPECT_LT(report.overlap_begin, 300u);
    EXPECT_GT(report.overlap_end, 1400u);
}

TEST(InterferenceDetector, PeakRatioReported)
{
    dsp::Signal mix = msk_burst(400, 444);
    chan::Link_channel{{1.0, 0.4}}.apply_onto(msk_burst(400, 445), 100, mix);
    mix = noisy(std::move(mix), 446);
    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(mix);
    EXPECT_GT(report.peak_ratio_db, 10.0);
}

// ------------------------------------------------------- byte identity
// The detector scans run on fused |y|^2 chains, lane threshold kernels
// and bit scans over the window mask.  These references transcribe the
// historical sequential loops; the detectors must agree on every field,
// byte for byte, across clean, collided, drifting, noise-only and
// hostile inputs.

/// The historical windowed energy statistics: per-sample energies, one
/// fused loop over the running sums, a divide per window.
struct Energy_scan {
    std::vector<double> window_mean;
    std::vector<double> window_variance;
};

Energy_scan scan_energy(dsp::Signal_view signal, std::size_t window)
{
    Energy_scan scan;
    if (signal.size() < window)
        return scan;
    std::vector<double> e;
    for (const dsp::Sample& y : signal)
        e.push_back(y.real() * y.real() + y.imag() * y.imag());
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
        sum += e[i];
        sum_sq += e[i] * e[i];
    }
    const auto w = static_cast<double>(window);
    for (std::size_t start = 0;; ++start) {
        const double mean = sum / w;
        double variance = sum_sq / w - mean * mean;
        if (variance < 0.0)
            variance = 0.0;
        scan.window_mean.push_back(mean);
        scan.window_variance.push_back(variance);
        if (start + window >= e.size())
            break;
        sum += e[start + window] - e[start];
        sum_sq += e[start + window] * e[start + window] - e[start] * e[start];
    }
    return scan;
}

std::optional<Packet_bounds> reference_detect(dsp::Signal_view signal,
                                              double noise_power_value,
                                              Packet_detector::Config config)
{
    constexpr std::size_t window = Packet_detector::window;
    if (signal.size() < window)
        return std::nullopt;
    const Energy_scan scan = scan_energy(signal, window);
    const std::vector<double>& mean = scan.window_mean;
    const double threshold = noise_power_value * from_db(config.energy_threshold_db);
    std::size_t first = mean.size();
    for (std::size_t i = 0; i < mean.size(); ++i) {
        if (mean[i] > threshold) {
            first = i;
            break;
        }
    }
    if (first == mean.size())
        return std::nullopt;
    std::size_t last = first;
    for (std::size_t i = mean.size(); i-- > first;) {
        if (mean[i] > threshold) {
            last = i;
            break;
        }
    }
    Packet_bounds bounds;
    bounds.begin = first;
    bounds.end = std::min(last + window, signal.size());
    return bounds;
}

Interference_report reference_analyze(dsp::Signal_view packet,
                                      double noise_power_value,
                                      Interference_detector::Config config)
{
    constexpr std::size_t window = Interference_detector::window;
    Interference_report report;
    if (packet.size() < window)
        return report;
    const Energy_scan scan = scan_energy(packet, window);
    const std::vector<double>& mean = scan.window_mean;
    const std::vector<double>& variance = scan.window_variance;
    const double threshold = from_db(config.variance_threshold_db);
    const double sigma2 = noise_power_value;
    std::size_t run = 0;
    std::size_t run_start = 0;
    std::size_t first_begin = 0;
    std::size_t last_end = 0;
    bool found = false;
    double peak_ratio = 1e-12;
    for (std::size_t i = 0; i < variance.size(); ++i) {
        const double signal_power = std::max(mean[i] - sigma2, 1e-12);
        const double clean_variance = 2.0 * signal_power * sigma2 + sigma2 * sigma2;
        const double ratio = variance[i] / clean_variance;
        peak_ratio = std::max(peak_ratio, ratio);
        if (ratio > threshold) {
            if (run == 0)
                run_start = i;
            ++run;
            if (run >= Interference_detector::min_run) {
                if (!found) {
                    first_begin = run_start;
                    found = true;
                }
                last_end = i + 1;
            }
        } else {
            run = 0;
        }
    }
    report.peak_ratio_db = std::max(0.0, to_db(peak_ratio));
    if (found) {
        report.interfered = true;
        report.overlap_begin = first_begin;
        report.overlap_end = std::min(last_end + window, packet.size());
    }
    return report;
}

std::vector<dsp::Signal> identity_workloads()
{
    std::vector<dsp::Signal> workloads;
    // Clean burst with silent head/tail (exercises both edge scans).
    {
        dsp::Signal stream(137, dsp::Sample{0.0, 0.0});
        dsp::accumulate(stream, msk_burst(500, 901), 137);
        stream.resize(stream.size() + 93, dsp::Sample{0.0, 0.0});
        workloads.push_back(noisy(std::move(stream), 902));
    }
    // Collision with drift dips (the envelope-merge path).
    {
        dsp::Signal mix = msk_burst(900, 903);
        chan::Link_params drift;
        drift.phase = 0.7;
        drift.phase_drift = 0.004;
        chan::Link_channel{drift}.apply_onto(msk_burst(900, 904, 0.9), 150, mix);
        workloads.push_back(noisy(std::move(mix), 905));
    }
    // Pure noise (no packet at all; detect must agree on nullopt).
    workloads.push_back(noisy(dsp::Signal(700, dsp::Sample{0.0, 0.0}), 906));
    // Weak burst straddling the threshold.
    workloads.push_back(noisy(msk_burst(300, 907, 0.25), 908));
    return workloads;
}

TEST(PacketDetector, BlockScanIsByteIdenticalToSequentialScan)
{
    const Packet_detector::Config config;
    const Packet_detector detector{noise_power, config};
    for (const dsp::Signal& stream : identity_workloads()) {
        const auto actual = detector.detect(stream);
        const auto expected = reference_detect(stream, noise_power, config);
        ASSERT_EQ(actual.has_value(), expected.has_value());
        if (actual) {
            EXPECT_EQ(actual->begin, expected->begin);
            EXPECT_EQ(actual->end, expected->end);
        }
    }
}

TEST(InterferenceDetector, HoistedRatioPassIsByteIdenticalToFusedLoop)
{
    const Interference_detector::Config config;
    const Interference_detector detector{noise_power, config};
    for (const dsp::Signal& packet : identity_workloads()) {
        const Interference_report actual = detector.analyze(packet);
        const Interference_report expected =
            reference_analyze(packet, noise_power, config);
        EXPECT_EQ(actual.interfered, expected.interfered);
        EXPECT_EQ(actual.overlap_begin, expected.overlap_begin);
        EXPECT_EQ(actual.overlap_end, expected.overlap_end);
        // Exact ==, not NEAR: the ratio arithmetic per window and the
        // max reduction must be bit-preserved by the rewrite.
        EXPECT_EQ(actual.peak_ratio_db, expected.peak_ratio_db);
    }
}

// --------------------------------------------- hostile and boundary
// Seeded signals built from random segments (silence, constant
// envelope, collision, noise) of up to 150 or 600 samples, so both masks
// hold runs of every length, sustained collisions included, at gains
// 0.5, 1, 2 and 1e±150 (the sums overflow to Inf and NaN, or sink into
// denormals), with NaN, ±Inf, denormal and ±0 samples sprinkled in.
// Lengths hit 0, 1, w−1, w, w+1 and window counts that straddle the
// lane widths and the 64-bit mask words, for w = 16 and 64 (the two
// detectors' windows; each detector runs every length).

dsp::Signal hostile_signal(std::size_t length, double gain, bool specials,
                           std::uint32_t max_segment, Pcg32& rng)
{
    dsp::Signal signal;
    signal.reserve(length);
    while (signal.size() < length) {
        const std::size_t segment = rng.next_in_range(1, max_segment);
        const std::uint32_t kind = rng.next_in_range(0, 3);
        const double phase_a = 6.3 * rng.next_double();
        const double phase_b = 6.3 * rng.next_double();
        for (std::size_t i = 0; i < segment && signal.size() < length; ++i) {
            const double noise_re = 0.1 * rng.next_gaussian();
            const double noise_im = 0.1 * rng.next_gaussian();
            dsp::Sample y{noise_re, noise_im};
            const double t = static_cast<double>(signal.size());
            if (kind == 0)
                y = {0.0, 0.0};
            else if (kind == 1)
                y += std::polar(1.0, phase_a + 1.5707963267948966 * t);
            else if (kind == 2)
                y += std::polar(1.0, phase_a + 1.5707963267948966 * t)
                     + std::polar(0.8, phase_b - 1.5707963267948966 * t);
            signal.push_back(y * gain);
        }
    }
    if (specials) {
        constexpr double inf = std::numeric_limits<double>::infinity();
        const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                                 inf,
                                 -inf,
                                 std::numeric_limits<double>::denorm_min(),
                                 -4.9e-310,
                                 0.0,
                                 -0.0};
        for (dsp::Sample& y : signal) {
            if (rng.next_in_range(0, 39) != 0)
                continue;
            const double value = values[rng.next_in_range(0, 6)];
            y = rng.next_in_range(0, 1) == 0 ? dsp::Sample{value, y.imag()}
                                       : dsp::Sample{y.real(), value};
        }
    }
    return signal;
}

std::vector<std::size_t> boundary_lengths(std::size_t window)
{
    std::vector<std::size_t> lengths{0, 1, window - 1, window, window + 1};
    // Window counts (length - window + 1) around the lane widths and the
    // mask-word boundaries, plus a few long packets.
    for (const std::size_t windows : {3, 4, 5, 7, 8, 9, 63, 64, 65, 66, 127, 128, 129, 130,
                                      700, 1500, 2049, 4097})
        lengths.push_back(window - 1 + windows);
    return lengths;
}

template <class Check>
void for_each_hostile_input(Check check)
{
    Pcg32 rng{2718, 5};
    for (const std::size_t window : {Packet_detector::window, Interference_detector::window}) {
        for (const std::size_t length : boundary_lengths(window)) {
            for (const double gain : {1.0, 0.5, 2.0, 1e150, 1e-150}) {
                for (const bool specials : {false, true}) {
                    for (const std::uint32_t max_segment : {150u, 600u})
                        check(hostile_signal(length, gain, specials, max_segment, rng));
                }
            }
        }
    }
}

TEST(PacketDetector, HostileInputsMatchSequentialScan)
{
    const Packet_detector::Config config;
    const Packet_detector detector{noise_power, config};
    std::size_t detected = 0;
    for_each_hostile_input([&](const dsp::Signal& stream) {
        const auto actual = detector.detect(stream);
        const auto expected = reference_detect(stream, noise_power, config);
        ASSERT_EQ(actual.has_value(), expected.has_value()) << stream.size() << " samples";
        if (actual) {
            ++detected;
            EXPECT_EQ(actual->begin, expected->begin);
            EXPECT_EQ(actual->end, expected->end);
        }
    });
    EXPECT_GT(detected, 100u); // not vacuous
}

TEST(InterferenceDetector, HostileInputsMatchFusedLoop)
{
    const Interference_detector::Config config;
    const Interference_detector detector{noise_power, config};
    std::size_t interfered = 0;
    std::size_t clear = 0;
    for_each_hostile_input([&](const dsp::Signal& packet) {
        const Interference_report actual = detector.analyze(packet);
        const Interference_report expected = reference_analyze(packet, noise_power, config);
        ASSERT_EQ(actual.interfered, expected.interfered) << packet.size() << " samples";
        EXPECT_EQ(actual.overlap_begin, expected.overlap_begin);
        EXPECT_EQ(actual.overlap_end, expected.overlap_end);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.peak_ratio_db),
                  std::bit_cast<std::uint64_t>(expected.peak_ratio_db));
        ++(actual.interfered ? interfered : clear);
    });
    // Both outcomes occur often enough for the run finder to be tested.
    EXPECT_GT(interfered, 100u) << clear;
    EXPECT_GT(clear, 100u) << interfered;
}

} // namespace
} // namespace anc::phy
