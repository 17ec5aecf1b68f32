// Command-line plumbing for bench/anc_sweep: axis parsing, the
// grid-flag table, the TTY progress line, and the artifact emitter that
// anc_sweep and the figure and ablation drivers (bench_util.h) share.
//
// Every axis token is parsed whole: a real axis takes finite decimal
// numbers, a count axis takes non-negative integers (parse_count), and
// anything else ("25x", "nan", "inf", "1e30" or "0.4" for a count) is a
// usage error rather than a silently truncated or wrapped value.  The
// grid these flags expand to is also what a journal header fingerprints,
// so --resume and --merge only accept journals written from the same
// flags.

#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "util/atomic_file.h"
#include "util/rate_limiter.h"

namespace anc::bench {

/// The non-empty items of a comma list ("a,,b," -> a, b).
inline std::vector<std::string> parse_list(const std::string& text)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!item.empty())
            items.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return items;
}

/// The value of scalar count flag `flag`: exactly one non-negative
/// decimal integer that fits `Int`, with nothing trailing.  Lists,
/// ranges, fractions, signs, junk and overflow ("2,8", "1:3:1", "1.4",
/// "+3", "8x", "-1", 2^64) are usage errors, never a silently truncated
/// first element or a wrapped value.
template <class Int = std::size_t>
Int parse_count(const std::string& flag, const std::string& text)
{
    Int value = 0;
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc{} || stop != end)
        throw std::invalid_argument{flag + " wants one non-negative integer, got: '"
                                    + text + "'"};
    return value;
}

/// A start:stop:step range expands to at most this many values: a
/// range that would not terminate ("0:1e300:1", or a step lost to
/// rounding) is a usage error, not an endless loop.
inline constexpr std::size_t max_range_values = 100000;

/// One real-axis item: exactly one finite decimal number, nothing
/// trailing.
inline double parse_real(const std::string& flag, const std::string& item)
{
    double value = 0.0;
    const char* const end = item.data() + item.size();
    const auto [stop, error] = std::from_chars(item.data(), end, value);
    if (item.empty() || error != std::errc{} || stop != end || !std::isfinite(value))
        throw std::invalid_argument{flag + " wants finite numbers, got: '" + item
                                    + "'"};
    return value;
}

/// Expand start:stop:step (step > 0).  The range ends on the lattice
/// point nearest stop, ties going up: the half-step slack keeps
/// "16:34:2" ending on 34 despite rounding error, and "16:35:2" ends on
/// 36.  It stops early rather than step past the largest T.
template <class T>
std::vector<T> expand_range(T start, T stop, T step, const std::string& text)
{
    if (step <= T{})
        throw std::invalid_argument{"range step must be positive: " + text};
    const auto within = [&](T v) {
        if constexpr (std::is_floating_point_v<T>)
            return v <= stop + step * 0.5;
        else
            return v <= stop || v - stop <= step / 2;
    };
    std::vector<T> values;
    for (T v = start; within(v); v += step) {
        if (values.size() == max_range_values)
            throw std::invalid_argument{"range expands past "
                                        + std::to_string(max_range_values)
                                        + " values: " + text};
        values.push_back(v);
        if (v > std::numeric_limits<T>::max() - step)
            break;
    }
    if (values.empty())
        throw std::invalid_argument{"empty range (start > stop?): " + text};
    return values;
}

/// Parse LIST, "a,b,c" or a start:stop:step range, with parse_item
/// turning each item (a range's start, stop and step too) into a T.
template <class T, class Parse_item>
std::vector<T> parse_list_or_range(const std::string& text, Parse_item parse_item)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos) {
        std::vector<T> values;
        for (const std::string& item : parse_list(text))
            values.push_back(parse_item(item));
        if (values.empty())
            throw std::invalid_argument{"empty axis value: " + text};
        return values;
    }
    const std::size_t colon2 = text.find(':', colon + 1);
    if (colon2 == std::string::npos)
        throw std::invalid_argument{"range must be start:stop:step: " + text};
    const T start = parse_item(text.substr(0, colon));
    const T stop = parse_item(text.substr(colon + 1, colon2 - colon - 1));
    const T step = parse_item(text.substr(colon2 + 1));
    return expand_range(start, stop, step, text);
}

/// Parse LIST as finite doubles.
inline std::vector<double> parse_axis(const std::string& flag, const std::string& text)
{
    return parse_list_or_range<double>(
        text, [&](const std::string& item) { return parse_real(flag, item); });
}

/// Parse LIST as counts: every item, and a range's start, stop and
/// step, is one non-negative integer (parse_count).
inline std::vector<std::size_t> parse_size_axis(const std::string& flag,
                                                const std::string& text)
{
    return parse_list_or_range<std::size_t>(
        text, [&](const std::string& item) { return parse_count(flag, item); });
}

/// "K/N" -> (K, N), validated 1 <= K <= N.
inline std::pair<std::size_t, std::size_t> parse_shard(const std::string& text)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        throw std::invalid_argument{"--shard wants K/N, got: " + text};
    const std::size_t k = parse_count("--shard K", text.substr(0, slash));
    const std::size_t n = parse_count("--shard N", text.substr(slash + 1));
    if (k < 1 || n < 1 || k > n)
        throw std::invalid_argument{"--shard wants 1 <= K <= N, got: " + text};
    return {k, n};
}

/// The grid-flag table.  try_parse consumes a grid axis flag (or
/// --repetitions / --seed) into the grid and returns false for flags it
/// does not own.
class Grid_cli {
public:
    explicit Grid_cli(engine::Sweep_grid& grid) : grid_{&grid} {}

    bool try_parse(const std::string& arg,
                   const std::function<std::string()>& value)
    {
        if (arg == "--scenario")
            grid_->scenarios.push_back(value());
        else if (arg == "--scheme")
            grid_->schemes.push_back(value());
        else if (arg == "--snr")
            grid_->snr_db = parse_axis(arg, value());
        else if (arg == "--alice-amplitude")
            grid_->alice_amplitudes = parse_axis(arg, value());
        else if (arg == "--bob-amplitude")
            grid_->bob_amplitudes = parse_axis(arg, value());
        else if (arg == "--payload-bits")
            grid_->payload_bits = parse_size_axis(arg, value());
        else if (arg == "--exchanges")
            grid_->exchanges = parse_size_axis(arg, value());
        else if (arg == "--detector-threshold")
            grid_->detector_thresholds_db = parse_axis(arg, value());
        else if (arg == "--interleave-rows")
            grid_->interleave_rows = parse_size_axis(arg, value());
        else if (arg == "--coherence-block")
            grid_->coherence_blocks = parse_size_axis(arg, value());
        else if (arg == "--mean-link-gain")
            grid_->mean_link_gains = parse_axis(arg, value());
        else if (arg == "--math-profile")
            grid_->math_profiles = dsp::math_profiles_from_string(value());
        else if (arg == "--repetitions")
            grid_->repetitions = parse_count(arg, value());
        else if (arg == "--seed")
            base_seed = parse_count<std::uint64_t>(arg, value());
        else
            return false;
        return true;
    }

    std::uint64_t base_seed = 1;

    /// The usage-text block describing the flags this table owns.
    static constexpr const char* usage_text =
        "grid axes (LIST = comma list or start:stop:step range; counts are\n"
        "whole non-negative numbers, every other value a finite number):\n"
        "  --scenario NAME        registry scenario; repeatable\n"
        "  --scheme NAME          restrict to this scheme; repeatable\n"
        "  --snr LIST             SNR sweep in dB (default 25)\n"
        "  --alice-amplitude LIST / --bob-amplitude LIST\n"
        "  --payload-bits LIST    payload size axis (default 2048)\n"
        "  --exchanges LIST       packet pairs per run (default 25)\n"
        "  --detector-threshold LIST  interference variance threshold, dB\n"
        "  --interleave-rows LIST     FEC interleaver depth (0 = off)\n"
        "  --coherence-block LIST     fading coherence block, samples\n"
        "  --mean-link-gain LIST      fading link-gain multiplier\n"
        "  --math-profile LIST    exact|fast (simd = fast), or both (default exact)\n"
        "  --repetitions N        independent runs per point (default 1)\n"
        "  --seed N               base seed for the deterministic runs\n";

private:
    engine::Sweep_grid* grid_;
};

/// Where a run publishes; an empty path writes nothing.
struct Artifact_paths {
    std::string json{}, csv{}, tasks_csv{}, metrics_json{};
};

/// Write the --json / --csv / --tasks-csv documents (anc.sweep.v4).
/// Every file is written atomically (temp file + rename): a crash never
/// publishes a truncated document.
inline void emit_artifacts(const Artifact_paths& paths,
                           const std::vector<engine::Task_result>& results,
                           const std::vector<engine::Point_summary>& points)
{
    if (!paths.json.empty())
        write_file_atomic(paths.json, [&](std::ostream& out) {
            engine::write_json(out, results, points);
        });
    if (!paths.csv.empty())
        write_file_atomic(paths.csv, [&](std::ostream& out) {
            engine::write_summary_csv(out, points);
        });
    if (!paths.tasks_csv.empty())
        write_file_atomic(paths.tasks_csv, [&](std::ostream& out) {
            engine::write_tasks_csv(out, results);
        });
}

/// Write the --metrics-json run manifest (anc.metrics.v1), atomically.
inline void emit_metrics(const Artifact_paths& paths, const engine::Metrics_run_info& info,
                         const engine::Sweep_grid& grid,
                         const obs::Sweep_telemetry& telemetry,
                         const std::vector<engine::Task_result>& results)
{
    if (!paths.metrics_json.empty())
        write_file_atomic(paths.metrics_json, [&](std::ostream& out) {
            engine::write_metrics_json(out, info, grid, telemetry, results);
            out << "\n";
        });
}

/// The stderr progress line: "\r  123/4096 tasks  41.0/s  ETA 97s".
/// Called once per executed task (serialized, never concurrently);
/// redraws are gated through a Rate_limiter to ~10 per second so
/// terminal I/O never becomes the run's bottleneck, and the final task
/// always draws so the line ends at 100%.
class Progress_line {
public:
    /// `total`: the tasks this run executes (grid minus preloaded).
    explicit Progress_line(std::size_t total) : total_{total} {}

    /// One executed task finished.
    void operator()()
    {
        ++done_;
        if (done_ != total_ && !redraw_gate_.ready())
            return;
        const double elapsed =
            std::chrono::duration<double>(clock::now() - start_).count();
        const double rate = elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;
        const double eta = rate > 0.0 ? static_cast<double>(total_ - done_) / rate : 0.0;
        std::fprintf(stderr, "\r%6zu/%zu tasks  %6.1f/s  ETA %5.0fs ", done_, total_,
                     rate, eta);
        if (done_ == total_)
            std::fputc('\n', stderr);
    }

private:
    using clock = std::chrono::steady_clock;
    std::size_t total_;
    std::size_t done_ = 0;
    clock::time_point start_ = clock::now();
    Rate_limiter redraw_gate_{std::chrono::milliseconds{100}};
};

} // namespace anc::bench
