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
#include "util/obs.h"
#include "util/rng.h"

#include "support/signal_ops.h"

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
    test::accumulate(stream, burst, 200);
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
    test::accumulate(stream, burst, 100);
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
    // The report carries the collision and where it sits, not a peak
    // ratio: B enters at sample 100 of the 401-sample mix.
    ASSERT_TRUE(report.interfered);
    EXPECT_NEAR(static_cast<double>(report.overlap_begin), 100.0, 80.0);
    EXPECT_GT(report.overlap_end, report.overlap_begin + 200);
    EXPECT_LE(report.overlap_end, mix.size());
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
    for (std::size_t i = 0; i < variance.size(); ++i) {
        const double signal_power = std::max(mean[i] - sigma2, 1e-12);
        const double clean_variance = 2.0 * signal_power * sigma2 + sigma2 * sigma2;
        const double ratio = variance[i] / clean_variance;
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
        test::accumulate(stream, msk_burst(500, 901), 137);
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

// The shapes the simulations hand the detectors: a clean packet with the
// receiver's 64-sample trailing guard, a two-MSK collision whose head and
// tail are clean, and a packet whose fade steps in mid-packet.  Leading
// noise of random length, amplitudes from 16 to 26 dB over the noise.

constexpr std::size_t rx_guard = 64;

dsp::Signal sim_shape(int shape, Pcg32& rng)
{
    const double amplitude = std::sqrt(noise_power * from_db(16.0 + 10.0 * rng.next_double()));
    const std::size_t bits = rng.next_in_range(200, 1200);
    const std::uint64_t seed = rng.next_u32();
    dsp::Signal stream(rng.next_in_range(0, 200), dsp::Sample{0.0, 0.0});
    const std::size_t head = stream.size();
    dsp::Signal packet = msk_burst(bits, seed, amplitude);
    if (shape == 1) {
        // The second packet enters after a clean head and outlasts the
        // first, leaving a clean tail.
        chan::Link_params link;
        link.gain = 0.5 + rng.next_double();
        link.phase = 6.3 * rng.next_double();
        link.phase_drift = 0.002 * rng.next_double();
        const std::size_t offset = rng.next_in_range(64, static_cast<std::uint32_t>(bits / 2));
        chan::Link_channel{link}.apply_onto(msk_burst(bits, seed + 1, amplitude), offset,
                                            packet);
    } else if (shape == 2) {
        // A fade step: gain and phase change at a random sample.
        const dsp::Sample step =
            std::polar(0.3 + 1.2 * rng.next_double(), 6.3 * rng.next_double());
        const std::size_t from = rng.next_in_range(0, static_cast<std::uint32_t>(bits));
        for (std::size_t i = from; i < packet.size(); ++i)
            packet[i] *= step;
    }
    stream.resize(head + packet.size() + rx_guard, dsp::Sample{0.0, 0.0});
    test::accumulate(stream, packet, head);
    return noisy(std::move(stream), seed + 2);
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
    for (int shape = 0; shape < 3; ++shape) {
        for (int i = 0; i < 40; ++i)
            check(sim_shape(shape, rng));
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
        ++(actual.interfered ? interfered : clear);
    });
    // Both outcomes occur often enough for the run finder to be tested.
    EXPECT_GT(interfered, 100u) << clear;
    EXPECT_GT(clear, 100u) << interfered;
}

// ----------------------------------------------------- exact fallback
// A window whose statistic lands exactly on its threshold is too close to
// certify: the detector runs the serial chains, and its output is still
// the sequential scan's.

obs::Counters counted(const auto& run)
{
    obs::Recorder recorder;
    const obs::Recorder::Bind bind{recorder};
    recorder.begin_task();
    run();
    return recorder.task().counters;
}

TEST(PacketDetector, WindowOnTheThresholdTakesTheExactPath)
{
    // Unit noise and a 0 dB threshold: a window of unit samples has mean
    // exactly 1, on the threshold, and the stream ends in such windows
    // after a burst of twice the amplitude.
    const Packet_detector::Config config{.energy_threshold_db = 0.0};
    ASSERT_EQ(from_db(config.energy_threshold_db), 1.0);
    dsp::Signal stream(300, dsp::Sample{1.0, 0.0});
    for (std::size_t i = 100; i < 200; ++i)
        stream[i] = {0.0, 2.0};
    const Packet_detector detector{1.0, config};
    std::optional<Packet_bounds> actual;
    const obs::Counters counters = counted([&] { actual = detector.detect(stream); });
    const auto expected = reference_detect(stream, 1.0, config);
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(actual.has_value());
    EXPECT_EQ(actual->begin, expected->begin);
    EXPECT_EQ(actual->end, expected->end);
    EXPECT_EQ(counters[obs::Counter::packet_detect_exact_fallbacks], 1u);
    EXPECT_EQ(counters[obs::Counter::packet_detect_triggers], 1u);
}

TEST(InterferenceDetector, RatioOnTheThresholdTakesTheExactPath)
{
    // Unit noise, a 10 dB threshold, and energies alternating 40.5 and
    // 0.5 (samples (4.5, 4.5) and (0.5, 0.5)): every window has mean
    // 20.5 and variance 400, so the ratio 400 / (2·19.5 + 1) is exactly
    // 10.  A later stretch alternating 50 and 0.5 sits above (ratio
    // 12.375), so the output holds a collision.
    const Interference_detector::Config config{.variance_threshold_db = 10.0};
    ASSERT_EQ(from_db(config.variance_threshold_db), 10.0);
    dsp::Signal packet;
    for (std::size_t i = 0; i < 700; ++i) {
        const double high = i < 400 ? 4.5 : 5.0;
        packet.push_back(i % 2 == 0 ? dsp::Sample{high, high} : dsp::Sample{0.5, 0.5});
    }
    const Interference_detector detector{1.0, config};
    Interference_report actual;
    const obs::Counters counters = counted([&] { actual = detector.analyze(packet); });
    const Interference_report expected = reference_analyze(packet, 1.0, config);
    ASSERT_TRUE(expected.interfered);
    EXPECT_EQ(actual.interfered, expected.interfered);
    EXPECT_EQ(actual.overlap_begin, expected.overlap_begin);
    EXPECT_EQ(actual.overlap_end, expected.overlap_end);
    EXPECT_EQ(counters[obs::Counter::interference_exact_fallbacks], 1u);
    EXPECT_EQ(counters[obs::Counter::interference_detected], 1u);
}

TEST(InterferenceDetector, SimulatedShapesNeedNoFallback)
{
    // The certified path decides the simulations' shapes by itself.
    const Packet_detector packet_detector{noise_power};
    const Interference_detector detector{noise_power};
    Pcg32 rng{31, 7};
    const obs::Counters counters = counted([&] {
        for (int shape = 0; shape < 3; ++shape) {
            for (int i = 0; i < 20; ++i) {
                const dsp::Signal stream = sim_shape(shape, rng);
                if (const auto bounds = packet_detector.detect(stream))
                    detector.analyze(dsp::slice_view(stream, bounds->begin, bounds->end));
            }
        }
    });
    EXPECT_EQ(counters[obs::Counter::packet_detect_triggers], 60u);
    EXPECT_EQ(counters[obs::Counter::interference_analyses], 60u);
    EXPECT_EQ(counters[obs::Counter::packet_detect_exact_fallbacks], 0u);
    EXPECT_EQ(counters[obs::Counter::interference_exact_fallbacks], 0u);
}

} // namespace
} // namespace anc::phy
