#include "phy/detector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dsp/energy_scan.h"
#include "dsp/workspace.h"
#include "util/db.h"
#include "util/obs.h"
#include "util/simd.h"

namespace anc::phy {

namespace {

// The window means multiply by 1/window, which rounds as the divide
// only for a power-of-two window.
static_assert(std::has_single_bit(Packet_detector::window));
static_assert(std::has_single_bit(Interference_detector::window));

// ------------------------------------------------ certified decisions
//
// Both detectors are defined by serial IEEE chains
// (dsp::window_energy_sums_into): with e_i = re_i² + im_i² (rounded,
// >= 0), S_0 adds e_0 .. e_{w-1} in order and S_k = S_{k-1} +
// (e_{k+w-1} - e_{k-1}), each operation rounded; likewise Q_k over the
// e_i·e_i.  A window's bit is a function of (S_k, Q_k) built from IEEE
// operations, each of which rounds monotonically, so the bit is
// monotone in each argument.  A window is therefore decided once S_k
// and Q_k are known to lie in intervals whose ends give the same bit,
// and the chains need not run.
//
// The bound.  Let E_k be the exact sum of the e_i of window k, Σ the
// exact sum of all e_i, and u = 2^-53.  S_0 is a recursive sum of w
// nonnegative terms, so |S_0 - E_0| <= (w-1)·u·E_0·(1 + O(wu)).  Step k
// adds two rounding errors: at most u·(e_new + e_old) in the
// difference, and at most u·(E_k + |S_{k-1} - E_{k-1}| + ...) in the
// sum.  Over all steps every e_i enters once and leaves once (at most
// 2u·Σ) and lies in at most w windows (at most w·u·Σ), and E_0 <= Σ, so
// for n windows
//     |S_k - E_k| <= (2w + 1)·u·Σ / (1 - n·u) <= (2w + 2)·u·Σ,
// and the same for Q_k over the e_i·e_i.  The fresh sums below drift
// from E_k by at most as much again: the packet detector's runs the
// same sliding form backward ((2w + 2)·u·Σ), the interference
// detector's adds 7 block sums of 8-energy trees and at most 15 edge
// energies (16·u·Σ).  The tolerance (4w + 64)·u·Σ̂, with Σ̂ the computed
// total or a bound above it, covers both with 60·u·Σ to spare for the
// roundings of Σ̂ and of the interval ends.
//
// Guards.  The bound needs finite sums that cannot overflow and a
// threshold (and noise power) of moderate normal magnitude, so that no
// product of the tests under- or overflows; anything else goes to the
// serial path, as does any window whose interval straddles its
// threshold.

constexpr double unit_roundoff = 0x1p-53;
constexpr std::size_t block = simd::energy_block;

/// True for a normal positive value in [2^-200, 2^200].
bool moderate(double x)
{
    return x >= 0x1p-200 && x <= 0x1p200;
}

double drift_bound(std::size_t window, double total)
{
    return static_cast<double>(4 * window + 64) * unit_roundoff * total;
}

double energy_at(const double* data, std::size_t i)
{
    return data[2 * i] * data[2 * i] + data[2 * i + 1] * data[2 * i + 1];
}

// ----------------------------------------------------- packet detector

constexpr double detect_inv_w = 1.0 / Packet_detector::window;

/// The last window above threshold, for a stream whose first one is
/// `first`: a certified sliding sum run backward from the end.  Nothing
/// when a window is too close to call or a guard fails.
std::optional<std::size_t> certified_last_above(dsp::Signal_view signal, std::size_t first,
                                                double threshold)
{
    constexpr std::size_t w = Packet_detector::window;
    if (!moderate(threshold))
        return std::nullopt;
    // Σ <= max|x| · Σ|x| · (1 + 3u), since e_i rounds re² + im² <=
    // max|x|·(|re| + |im|).  A NaN or infinite sample makes Σ|x| NaN
    // or infinite.
    const double* data = reinterpret_cast<const double*>(signal.data());
    const std::size_t doubles = 2 * signal.size();
    constexpr std::size_t slots = simd::abs_slots;
    double sums[slots] = {};
    double maxes[slots] = {};
    simd::abs_sum_max(data, doubles / slots, sums, maxes);
    for (std::size_t i = doubles / slots * slots; i < doubles; ++i) {
        sums[i % slots] += std::abs(data[i]);
        maxes[i % slots] = std::max(maxes[i % slots], std::abs(data[i]));
    }
    double abs_sum = 0.0;
    for (const double sum : sums)
        abs_sum += sum;
    const double abs_max = *std::max_element(maxes, maxes + slots);
    if (!(abs_sum <= 0x1p300 && abs_max <= 0x1p100))
        return std::nullopt;
    const double tol = drift_bound(w, abs_max * abs_sum);
    const auto above = [&](double sum) { return (sum - tol) * detect_inv_w > threshold; };
    const auto below = [&](double sum) { return (sum + tol) * detect_inv_w <= threshold; };

    std::size_t k = signal.size() - w;
    double sum = 0.0;
    for (std::size_t i = k; i < k + w; ++i)
        sum += energy_at(data, i);
    for (;; --k) {
        if (k == first || above(sum))
            return k;
        if (!below(sum))
            return std::nullopt;
        sum += energy_at(data, k - 1) - energy_at(data, k - 1 + w);
    }
}

// ------------------------------------------------ interference detector

constexpr double analyze_inv_w = 1.0 / Interference_detector::window;

/// The sums of windows [8b, 8b + count) into sums[0, count) and
/// sum_sqs[0, count).  Window 8b + r is the inner blocks b + 1 .. b + 7,
/// the samples of block b from r on and the first r samples after the
/// inner blocks.
void window_sums(const double* data, const double* s, const double* q, std::size_t b,
                 std::size_t count, double* sums, double* sum_sqs)
{
    double inner = 0.0;
    double inner_sq = 0.0;
    for (std::size_t j = b + 1; j < b + block; ++j) {
        inner += s[j];
        inner_sq += q[j];
    }
    double head[block];
    double head_sq[block];
    double tail = 0.0;
    double tail_sq = 0.0;
    for (std::size_t r = block; r-- > 0;) {
        const double e = energy_at(data, b * block + r);
        head[r] = tail += e;
        head_sq[r] = tail_sq += e * e;
    }
    double next = 0.0;
    double next_sq = 0.0;
    for (std::size_t r = 0; r < count; ++r) {
        if (r != 0) {
            const double e = energy_at(data, (b + block) * block + r - 1);
            next += e;
            next_sq += e * e;
        }
        sums[r] = inner + (head[r] + next);
        sum_sqs[r] = inner_sq + (head_sq[r] + next_sq);
    }
}

/// The serial path's mask (bit n set iff window n's ratio exceeds the
/// threshold) without its chains; false (mask partly written) when a
/// window is too close to call or a guard fails.
///
/// Window block b, windows [8b, 8b + 8), lies in the 72-sample superset
/// U = blocks b .. b + 8, and each of its windows holds the seven inner
/// blocks b + 1 .. b + 7 whole.  With D the sum of squared deviations of
/// a window's energies from their mean (D/64 is the variance the serial
/// ratio estimates),
///   Σ inner within-block D  <=  D  <=  D of U,
///   Σ inner block sums      <=  S  <=  Σ U block sums,
/// up to the drift bounds, and the clean variance rises with S; so
/// simd::excess_block_tests decides most window blocks whole.  Its
/// dev_bound is how far 64·(serial variance) can sit from D: the drift
/// through Q - S²/64, plus the roundings of the serial variance and of
/// the block statistics (about 70u of their scale, against 2^-44 =
/// 512u).  Each test's 2^-40 slack covers the few roundings of its two
/// sides.  The window blocks left open go to simd::excess_window_tests
/// window by window.
bool certified_excess_mask(dsp::Signal_view packet, double sigma2, double threshold,
                           std::uint64_t* mask)
{
    constexpr std::size_t w = Interference_detector::window;
    if (!moderate(sigma2) || !moderate(threshold))
        return false;
    dsp::Workspace& workspace = dsp::Workspace::current();
    auto sums = workspace.reals();
    auto sum_sqs = workspace.reals();
    auto devs = workspace.reals();
    const std::size_t blocks = packet.size() / block;
    sums->resize(blocks);
    sum_sqs->resize(blocks);
    devs->resize(blocks);
    const double* data = reinterpret_cast<const double*>(packet.data());
    const double* s = sums->data();
    const double* q = sum_sqs->data();
    simd::block_energy_sums(data, blocks, sums->data(), sum_sqs->data(), devs->data());

    // Σ̂ and its |y|^4 twin, in eight slots each (the order is free).
    double slots[block] = {};
    double slots_sq[block] = {};
    std::size_t j = 0;
    for (; j + block <= blocks; j += block) {
        for (std::size_t r = 0; r < block; ++r) {
            slots[r] += s[j + r];
            slots_sq[r] += q[j + r];
        }
    }
    for (; j < blocks; ++j) {
        slots[0] += s[j];
        slots_sq[0] += q[j];
    }
    for (std::size_t i = blocks * block; i < packet.size(); ++i) {
        const double e = energy_at(data, i);
        slots[0] += e;
        slots_sq[0] += e * e;
    }
    double total = 0.0;
    double total_sq = 0.0;
    for (std::size_t r = 0; r < block; ++r) {
        total += slots[r];
        total_sq += slots_sq[r];
    }
    if (!(total <= 0x1p400 && total_sq <= 0x1p800))
        return false;
    const double tol = drift_bound(w, total);
    const double tol_sq = drift_bound(w, total_sq);
    // Every window block's sums lie below the totals.
    const double dev_bound = tol_sq + 2.0 * (total + tol) * tol * analyze_inv_w
                             + 0x1p-44 * (total_sq + total * total * analyze_inv_w);

    const std::size_t windows = packet.size() - w + 1;
    const std::size_t window_blocks = (windows + block - 1) / block;
    const std::size_t tested = blocks > block ? blocks - block : 0;
    auto open = workspace.bits();
    auto above = workspace.bits();
    open->resize(tested);
    above->resize(tested);
    simd::excess_block_tests(s, q, devs->data(), tested, sigma2, threshold, tol, dev_bound,
                             open->data(), above->data());

    // Eight window blocks are one mask word: their 0/1 `above` bytes,
    // read as one word, times 0xff set its bits (little-endian).  The
    // open ones, and the last ones, which lack a ninth block, have their
    // window sums listed for the window tests.
    static_assert(std::endian::native == std::endian::little);
    auto open_blocks = workspace.words();
    std::size_t b = 0;
    for (; b + block <= tested; b += block) {
        std::uint64_t open_bytes;
        std::uint64_t above_bytes;
        std::memcpy(&open_bytes, open->data() + b, sizeof open_bytes);
        std::memcpy(&above_bytes, above->data() + b, sizeof above_bytes);
        mask[b / block] |= above_bytes * 0xff;
        for (; open_bytes != 0; open_bytes &= open_bytes - 1)
            open_blocks->push_back(b + static_cast<std::size_t>(std::countr_zero(open_bytes)) / 8);
    }
    for (; b < window_blocks; ++b) {
        if (b >= tested || (*open)[b])
            open_blocks->push_back(b);
        else if ((*above)[b])
            mask[b / block] |= std::uint64_t{0xff} << (b * block & 63);
    }
    if (open_blocks->empty())
        return true;

    // The fresh window sums of the open blocks (within 16u·Σ of the
    // exact ones), eight per block; a last short block pads with zeros,
    // whose verdicts are not read.
    const std::size_t listed = open_blocks->size() * block;
    auto fresh = workspace.reals();
    auto fresh_sq = workspace.reals();
    fresh->resize(listed);
    fresh_sq->resize(listed);
    for (std::size_t i = 0; i < open_blocks->size(); ++i) {
        const std::size_t k = (*open_blocks)[i];
        window_sums(data, s, q, k, std::min(block, windows - k * block), &(*fresh)[i * block],
                    &(*fresh_sq)[i * block]);
    }
    open->resize(listed);
    above->resize(listed);
    simd::excess_window_tests(fresh->data(), fresh_sq->data(), listed, sigma2, threshold, tol,
                              tol_sq, open->data(), above->data());
    for (std::size_t i = 0; i < open_blocks->size(); ++i) {
        const std::size_t k = (*open_blocks)[i];
        const std::size_t count = std::min(block, windows - k * block);
        for (std::size_t r = 0; r < count; ++r) {
            if ((*open)[i * block + r])
                return false;
            const std::size_t n = k * block + r;
            mask[n >> 6] |= std::uint64_t{(*above)[i * block + r]} << (n & 63);
        }
    }
    return true;
}

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
    const double threshold = noise_power_ * from_db(config_.energy_threshold_db);
    // The first window above threshold marks the packet head, the last
    // one the tail.  The head comes from the serial chain itself, run
    // only that far.
    const std::size_t windows = signal.size() - window + 1;
    const std::size_t first =
        dsp::first_window_above(signal, window, detect_inv_w, threshold);
    if (first == windows) {
        obs::count(obs::Counter::packet_detect_rejections);
        return std::nullopt;
    }
    std::optional<std::size_t> last = certified_last_above(signal, first, threshold);
    if (!last) {
        // The serial path: every window's chain sum.
        obs::count(obs::Counter::packet_detect_exact_fallbacks);
        auto sums = dsp::Workspace::current().reals();
        dsp::window_energy_sums_into(signal, window, *sums);
        last = windows - 1;
        while (!((*sums)[*last] * detect_inv_w > threshold))
            --*last;
    }

    obs::count(obs::Counter::packet_detect_triggers);
    Packet_bounds bounds;
    bounds.begin = first;
    bounds.end = std::min(*last + window, signal.size());
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
    auto mask = workspace.words();
    const std::size_t windows = packet.size() - window + 1;
    mask->resize(mask_words(windows));
    const double threshold = from_db(config_.variance_threshold_db);
    if (!certified_excess_mask(packet, noise_power_, threshold, mask->data())) {
        // The serial path: every window's chain sums and ratio.
        obs::count(obs::Counter::interference_exact_fallbacks);
        std::fill(mask->begin(), mask->end(), std::uint64_t{0});
        auto sums = workspace.reals();
        auto sum_sqs = workspace.reals();
        dsp::window_energy_sums_into(packet, window, *sums, &*sum_sqs);
        const double sigma2 = noise_power_;
        for (std::size_t n = 0; n < windows; ++n) {
            // The excess-variance ratio: the population variance of the
            // energies (tiny negatives from cancellation clamp to 0; the
            // comparison form keeps a -0.0) over the variance a clean
            // constant-envelope signal of this power would show over the
            // noise floor, cross term 2·|s|²·σ² plus σ⁴ with |s|² the
            // window mean minus the noise floor.  The certified tests
            // (simd::excess_block_tests, excess_window_tests) repeat
            // these operations.
            const double mean = (*sums)[n] * analyze_inv_w;
            double variance = (*sum_sqs)[n] * analyze_inv_w - mean * mean;
            variance = variance < 0.0 ? 0.0 : variance;
            const double signal_power = std::max(mean - sigma2, 1e-12);
            const double clean_variance = 2.0 * signal_power * sigma2 + sigma2 * sigma2;
            if (variance / clean_variance > threshold)
                (*mask)[n >> 6] |= std::uint64_t{1} << (n & 63);
        }
    }

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
