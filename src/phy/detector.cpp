#include "phy/detector.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "dsp/energy_scan.h"
#include "dsp/workspace.h"
#include "util/db.h"
#include "util/obs.h"
#include "util/simd.h"

namespace anc::phy {

namespace {

// The window means multiply by 1/window (simd::window_mean_mask), which
// rounds as the divide only for a power-of-two window.
static_assert(std::has_single_bit(Packet_detector::window));
static_assert(std::has_single_bit(Interference_detector::window));

// Bit scans over a window mask (bit n = window n passed its threshold;
// bits at or past `windows` are clear).  Each word takes one countr_zero
// instead of up to 64 branches.

std::size_t mask_words(std::size_t windows)
{
    return (windows + 63) / 64;
}

/// The first bit at or after `from` that equals `value`, or `windows`
/// if there is none before it.
std::size_t next_bit(const std::vector<std::uint64_t>& mask, std::size_t from,
                     std::size_t windows, bool value)
{
    if (from >= windows)
        return windows;
    const std::uint64_t flip = value ? 0 : ~std::uint64_t{0};
    std::size_t word = from >> 6;
    std::uint64_t bits = (mask[word] ^ flip) & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
        if (++word == mask.size())
            return windows;
        bits = mask[word] ^ flip;
    }
    return std::min(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)), windows);
}

/// The last set bit of a mask with at least one set bit.
std::size_t last_set(const std::vector<std::uint64_t>& mask)
{
    std::size_t word = mask.size();
    while (mask[--word] == 0) {
    }
    return word * 64 + 63 - static_cast<std::size_t>(std::countl_zero(mask[word]));
}

} // namespace

Packet_detector::Packet_detector(double noise_power, Config config)
    : noise_power_{noise_power}, config_{config}
{
}

std::optional<Packet_bounds> Packet_detector::detect(dsp::Signal_view signal) const
{
    const obs::Stage_timer timer{obs::Stage::packet_detect};
    if (signal.size() < window) {
        obs::count(obs::Counter::packet_detect_rejections);
        return std::nullopt;
    }
    dsp::Workspace& workspace = dsp::Workspace::current();
    auto sums = workspace.reals();
    auto mask = workspace.words();
    // Mean-only chain: detection thresholds the window means and never
    // reads the variance series.
    dsp::window_energy_sums_into(signal, window, *sums);
    const std::size_t windows = sums->size();
    mask->resize(mask_words(windows));
    const double threshold = noise_power_ * from_db(config_.energy_threshold_db);
    simd::window_mean_mask(sums->data(), windows, 1.0 / window, threshold, mask->data());

    // The first window above threshold marks the packet head, the last
    // one the tail.
    const std::size_t first = next_bit(*mask, 0, windows, true);
    if (first == windows) {
        obs::count(obs::Counter::packet_detect_rejections);
        return std::nullopt;
    }
    const std::size_t last = last_set(*mask);

    obs::count(obs::Counter::packet_detect_triggers);
    Packet_bounds bounds;
    bounds.begin = first;
    bounds.end = std::min(last + window, signal.size());
    return bounds;
}

Interference_detector::Interference_detector(double noise_power, Config config)
    : noise_power_{noise_power}, config_{config}
{
}

Interference_report Interference_detector::analyze(dsp::Signal_view packet) const
{
    const obs::Stage_timer timer{obs::Stage::interference_analyze};
    obs::count(obs::Counter::interference_analyses);
    Interference_report report;
    if (packet.size() < window)
        return report;

    dsp::Workspace& workspace = dsp::Workspace::current();
    auto sums = workspace.reals();
    auto sum_sqs = workspace.reals();
    auto mask = workspace.words();
    dsp::window_energy_sums_into(packet, window, *sums, &*sum_sqs);
    const std::size_t windows = sums->size();
    mask->resize(mask_words(windows));
    // Peak tracked in linear space and converted to dB once: log10 is
    // monotone, so max-then-log equals log-then-max.  The historical
    // running max started at 0 dB, so it never reports below zero.
    const double peak_ratio = simd::excess_variance_mask(
        sums->data(), sum_sqs->data(), windows, 1.0 / window, noise_power_,
        from_db(config_.variance_threshold_db), mask->data());
    report.peak_ratio_db = std::max(0.0, to_db(peak_ratio));

    // The overlap region is the *envelope* of every sustained
    // above-threshold run.  A single collision can show transient dips:
    // when the two carriers' relative phase drifts through +-pi/2 (CFO),
    // cos(theta - phi) passes zero and the envelope is momentarily
    // near-constant.  Taking the envelope instead of the longest run
    // keeps those dips from splitting one collision into two.
    bool found = false;
    std::size_t first_begin = 0;
    std::size_t last_end = 0;
    for (std::size_t begin = next_bit(*mask, 0, windows, true); begin < windows;) {
        const std::size_t end = next_bit(*mask, begin, windows, false);
        if (end - begin >= min_run) {
            if (!found)
                first_begin = begin;
            found = true;
            last_end = end;
        }
        begin = next_bit(*mask, end, windows, true);
    }

    if (found) {
        obs::count(obs::Counter::interference_detected);
        report.interfered = true;
        report.overlap_begin = first_begin;
        report.overlap_end = std::min(last_end + window, packet.size());
    }
    return report;
}

} // namespace anc::phy
