// Shared command-line plumbing for the sweep front-ends (bench/anc_sweep
// and bench/anc_coordinator): axis parsing, the grid-flag table, the
// TTY progress line, and the atomic streaming file.
//
// The two CLIs must agree on every grid flag byte for byte — the
// coordinator forwards its grid flags verbatim to the `anc_sweep`
// workers it spawns, and journal compatibility hinges on both sides
// expanding the identical grid (the fingerprint in every anc.journal.v1
// header).  One table, two binaries.

#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "engine/engine.h"
#include "util/rate_limiter.h"

namespace anc::bench {

/// Parse LIST as doubles: "a,b,c" or "start:stop:step" (stop inclusive
/// when the lattice lands on it; step > 0).
inline std::vector<double> parse_axis(const std::string& text)
{
    std::vector<double> values;
    const std::size_t colon = text.find(':');
    if (colon != std::string::npos) {
        const std::size_t colon2 = text.find(':', colon + 1);
        if (colon2 == std::string::npos)
            throw std::invalid_argument{"range must be start:stop:step: " + text};
        const double start = std::stod(text.substr(0, colon));
        const double stop = std::stod(text.substr(colon + 1, colon2 - colon - 1));
        const double step = std::stod(text.substr(colon2 + 1));
        if (step <= 0.0)
            throw std::invalid_argument{"range step must be positive: " + text};
        // Half-step slack keeps "16:35:2" ending on 34 and "16:34:2" on
        // 34 too, without accumulating error over long ranges.
        for (double v = start; v <= stop + step * 0.5; v += step)
            values.push_back(v);
        // An inverted (or NaN) range yields nothing; fail it here with
        // the offending text instead of letting grid expansion report a
        // bare "empty axis".
        if (values.empty())
            throw std::invalid_argument{"empty range (start > stop?): " + text};
        return values;
    }
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!item.empty())
            values.push_back(std::stod(item));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (values.empty())
        throw std::invalid_argument{"empty axis value: " + text};
    return values;
}

inline std::vector<std::size_t> parse_size_axis(const std::string& text)
{
    std::vector<std::size_t> values;
    for (const double v : parse_axis(text)) {
        if (v < 0.0)
            throw std::invalid_argument{"axis value must be non-negative: " + text};
        values.push_back(static_cast<std::size_t>(v + 0.5));
    }
    return values;
}

inline std::vector<std::string> parse_path_list(const std::string& text)
{
    std::vector<std::string> paths;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!item.empty())
            paths.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return paths;
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

/// The grid-flag table both sweeping CLIs share.  try_parse consumes a
/// grid axis flag (or --repetitions / --seed), records the raw tokens
/// in forwarded() so a supervisor can replay them verbatim on a worker
/// command line, and returns false for flags it does not own.
class Grid_cli {
public:
    explicit Grid_cli(engine::Sweep_grid& grid) : grid_{&grid} {}

    bool try_parse(const std::string& arg,
                   const std::function<std::string()>& value)
    {
        const auto take = [&](auto parse_into) {
            const std::string text = value();
            parse_into(text);
            forwarded_.push_back(arg);
            forwarded_.push_back(text);
            return true;
        };
        if (arg == "--scenario")
            return take([&](const std::string& v) { grid_->scenarios.push_back(v); });
        if (arg == "--scheme")
            return take([&](const std::string& v) { grid_->schemes.push_back(v); });
        if (arg == "--snr")
            return take([&](const std::string& v) { grid_->snr_db = parse_axis(v); });
        if (arg == "--alice-amplitude")
            return take(
                [&](const std::string& v) { grid_->alice_amplitudes = parse_axis(v); });
        if (arg == "--bob-amplitude")
            return take(
                [&](const std::string& v) { grid_->bob_amplitudes = parse_axis(v); });
        if (arg == "--payload-bits")
            return take(
                [&](const std::string& v) { grid_->payload_bits = parse_size_axis(v); });
        if (arg == "--exchanges")
            return take(
                [&](const std::string& v) { grid_->exchanges = parse_size_axis(v); });
        if (arg == "--detector-threshold")
            return take([&](const std::string& v) {
                grid_->detector_thresholds_db = parse_axis(v);
            });
        if (arg == "--interleave-rows")
            return take([&](const std::string& v) {
                grid_->interleave_rows = parse_size_axis(v);
            });
        if (arg == "--coherence-block")
            return take([&](const std::string& v) {
                grid_->coherence_blocks = parse_size_axis(v);
            });
        if (arg == "--mean-link-gain")
            return take(
                [&](const std::string& v) { grid_->mean_link_gains = parse_axis(v); });
        if (arg == "--math-profile")
            return take([&](const std::string& v) {
                grid_->math_profiles = dsp::math_profiles_from_string(v);
            });
        if (arg == "--repetitions")
            return take([&](const std::string& v) {
                grid_->repetitions = parse_count(arg, v);
            });
        if (arg == "--seed")
            return take([&](const std::string& v) {
                base_seed = parse_count<std::uint64_t>(arg, v);
            });
        return false;
    }

    /// The raw grid tokens in parse order, for verbatim forwarding.
    const std::vector<std::string>& forwarded() const { return forwarded_; }

    std::uint64_t base_seed = 1;

    /// The usage-text block describing the flags this table owns.
    static constexpr const char* usage_text =
        "grid axes (LIST = comma list or start:stop:step range):\n"
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
    std::vector<std::string> forwarded_;
};

/// The stderr progress line: "\r  123/4096 tasks  41.0/s  ETA 97s".
/// Called once per finished task (serialized, never concurrently);
/// redraws are gated through a Rate_limiter to ~10 per second so
/// terminal I/O never becomes the run's bottleneck, and the final task
/// always draws so the line ends at 100%.
class Progress_line {
public:
    void operator()(std::size_t done, std::size_t total)
    {
        if (done != total && !redraw_gate_.ready())
            return;
        const double elapsed =
            std::chrono::duration<double>(clock::now() - start_).count();
        const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
        const double eta = rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
        std::fprintf(stderr, "\r%6zu/%zu tasks  %6.1f/s  ETA %5.0fs ", done, total,
                     rate, eta);
        if (done == total)
            std::fputc('\n', stderr);
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_ = clock::now();
    Rate_limiter redraw_gate_{std::chrono::milliseconds{100}};
};

/// A file that streams row by row but still publishes atomically: rows
/// go to `<path>.tmp.<pid>`, and commit() renames onto the final path.
/// An uncommitted (crashed/failed) stream leaves at most a temp file,
/// removed by the destructor when possible.
class Stream_file {
public:
    explicit Stream_file(const std::string& path)
        : path_{path}, tmp_{path + ".tmp." + std::to_string(::getpid())}, out_{tmp_}
    {
        if (!out_)
            throw std::runtime_error{"cannot write " + tmp_};
    }

    ~Stream_file()
    {
        if (!committed_) {
            out_.close();
            std::remove(tmp_.c_str());
        }
    }

    std::ostream& stream() { return out_; }

    void commit()
    {
        out_.flush();
        if (!out_)
            throw std::runtime_error{"write failed on " + tmp_};
        out_.close();
        if (std::rename(tmp_.c_str(), path_.c_str()) != 0)
            throw std::runtime_error{"cannot rename " + tmp_ + " to " + path_};
        committed_ = true;
    }

private:
    std::string path_;
    std::string tmp_;
    std::ofstream out_;
    bool committed_ = false;
};

} // namespace anc::bench
