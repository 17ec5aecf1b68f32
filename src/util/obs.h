// anc::obs — engine-wide telemetry: per-thread event counters, stage
// timers, and the task-latency histogram behind the anc.metrics.v1 run
// manifest (OBSERVABILITY.md is the catalog and schema reference).
//
// Design rules, in order of precedence:
//
//   1. *Neutrality.*  Telemetry must never perturb results.  Counters
//      and timers touch no floating-point state and no RNG stream; the
//      instrumented sites do exactly the work they did before, plus an
//      integer increment on a thread-local struct.  The engine's
//      telemetry-regression tests compare emitted sweep JSON bytes with
//      collection on and off, at several thread counts, per profile.
//
//   2. *Allocation-free.*  Every accumulator is a fixed-size struct
//      (arrays indexed by enum), bound per worker thread exactly like
//      dsp::Workspace: the executor owns one Recorder per worker and
//      Binds it for the thread's lifetime.  Recording is a pointer test
//      plus an array increment — no maps, no strings, no heap.
//
//   3. *Deterministic merge.*  Per-task counter snapshots live in the
//      task's own result slot, so merging them in task-index order
//      yields totals that are bit-identical at any thread count (the
//      same contract as the result vector itself).  Wall-clock values
//      are genuinely nondeterministic — they are reported, never merged
//      into anything a result depends on.
//
// When no Recorder is bound (the default everywhere outside an
// instrumented run), every obs:: call is a branch on a thread-local
// pointer and nothing else — the hot path stays unperturbed.

#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace anc::obs {

// ------------------------------------------------------------- counters

/// The fixed event-counter catalog.  Every counter is a plain uint64
/// accumulated per task; OBSERVABILITY.md documents each site's meaning.
/// Append new counters at the end (the array layout is not a wire
/// format, but tests enumerate by index).
enum class Counter : std::size_t {
    // phy::Packet_detector — energy detection (§7.1).
    packet_detect_triggers,   ///< detect() found packet bounds
    packet_detect_rejections, ///< detect() saw nothing above threshold
    // chan::Medium — per-link AGC detection-threshold decisions.
    agc_lookups,   ///< detection_threshold_db() queries
    agc_overrides, ///< ... that resolved to a per-link AGC override
    // phy::Interference_detector — excess-variance collision detection.
    interference_analyses, ///< analyze() calls
    interference_detected, ///< ... that reported a collision
    // phy::find_pattern — pilot search (§7.2).
    pilot_searches,       ///< find_pattern() calls
    pilot_hits,           ///< ... that found a match
    pilot_misses,         ///< ... that found none
    pilot_hit_offset_sum, ///< sum of matched start positions (mean = /hits)
    pilot_hit_error_sum,  ///< sum of Hamming errors at the matches
    // phy::parse_frame_at — payload CRC verdicts.
    crc_pass,
    crc_fail,
    // fec:: — Hamming(7,4) decode corrections.
    fec_codewords,      ///< codewords decoded
    fec_corrected_bits, ///< nonzero syndromes (one corrected bit each)
    // Interference_decoder — Eq. 7/8 candidate selection.
    decode_calls,             ///< decode_into() invocations
    decode_selected_samples,  ///< transitions resolved by Eq. 8 selection
    decode_tail_samples,      ///< transitions past the known signal (differential)
    // Anc_receiver — receive() outcomes (Algorithm 1).
    rx_no_packet,
    rx_clean,
    rx_decoded_interference,
    rx_forward_candidate,
    rx_failed,
    // Anc_receiver — where failed interference decodes gave up.
    rx_fail_no_known_header,
    rx_fail_no_overlap,
    rx_fail_no_amplitudes,
    rx_fail_no_unknown_pilot,
    rx_fail_bad_unknown_frame,
    // phy::find_pattern — degenerate calls (empty pattern, or a haystack
    // shorter than the pattern).  Kept out of pilot_searches and the
    // pilot_search stage timer so the manifest's per-search cost is not
    // skewed by calls that never scanned anything.
    pilot_degenerate,
    // phy detectors — calls that ran the serial energy chains because a
    // window's margin to the threshold fell inside the certified bound,
    // or a guard (non-finite or huge input, odd threshold) sent them.
    packet_detect_exact_fallbacks, ///< detect() calls past the head chain
    interference_exact_fallbacks,  ///< analyze() calls
    count, ///< sentinel
};

inline constexpr std::size_t counter_count = static_cast<std::size_t>(Counter::count);

/// Stable snake_case name of a counter (JSON keys of the manifest).
const char* to_string(Counter counter);

/// A full counter set: plain array, mergeable, zeroed by default.
struct Counters {
    std::array<std::uint64_t, counter_count> values{};

    std::uint64_t& operator[](Counter id) { return values[static_cast<std::size_t>(id)]; }
    std::uint64_t operator[](Counter id) const
    {
        return values[static_cast<std::size_t>(id)];
    }

    void merge(const Counters& other)
    {
        for (std::size_t i = 0; i < counter_count; ++i)
            values[i] += other.values[i];
    }

    bool operator==(const Counters&) const = default;
};

// --------------------------------------------------------- stage timers

/// Pipeline stages with a wall-clock accumulator.  A stage is a code
/// region, not a call graph: nested regions each charge their own stage.
enum class Stage : std::size_t {
    modulate,             ///< phy::Modem modulate paths
    channel,              ///< chan::Medium::receive_into (mix + AWGN)
    packet_detect,        ///< phy::Packet_detector::detect
    interference_analyze, ///< phy::Interference_detector::analyze
    demodulate,           ///< MSK hard-decision demodulation
    pilot_search,         ///< phy::find_pattern scans
    amplitude_estimate,   ///< §6.2 amplitude estimation block
    interference_decode,  ///< Interference_decoder::decode_into
    fec_decode,           ///< fec::Fec_codec::decode
    count, ///< sentinel
};

inline constexpr std::size_t stage_count = static_cast<std::size_t>(Stage::count);

const char* to_string(Stage stage);

/// Per-stage accumulated wall time and call counts.
struct Stage_times {
    std::array<std::uint64_t, stage_count> ns{};
    std::array<std::uint64_t, stage_count> calls{};

    void add(Stage stage, std::uint64_t elapsed_ns)
    {
        ns[static_cast<std::size_t>(stage)] += elapsed_ns;
        ++calls[static_cast<std::size_t>(stage)];
    }

    void merge(const Stage_times& other)
    {
        for (std::size_t i = 0; i < stage_count; ++i) {
            ns[i] += other.ns[i];
            calls[i] += other.calls[i];
        }
    }
};

// ------------------------------------------------------------ histogram

/// Fixed log-spaced task-latency histogram: bin b spans
/// [2^(10+b), 2^(11+b)) ns — bin 0 is "up to 2 µs" (it also absorbs
/// anything under 1 µs), the last bin is the open-ended overflow.  A
/// plain array: no allocation, trivially mergeable.
struct Latency_histogram {
    static constexpr std::size_t bin_count = 32;
    std::array<std::uint64_t, bin_count> counts{};

    static std::size_t bin_for(std::uint64_t ns)
    {
        if (ns < 1024)
            return 0;
        const std::size_t bin = static_cast<std::size_t>(std::bit_width(ns)) - 11;
        return bin < bin_count ? bin : bin_count - 1;
    }

    /// Inclusive lower bound of a bin in ns (bin 0 reports 0).
    static std::uint64_t bin_floor_ns(std::size_t bin)
    {
        return bin == 0 ? 0 : std::uint64_t{1} << (10 + bin);
    }

    void add(std::uint64_t ns) { ++counts[bin_for(ns)]; }

    void merge(const Latency_histogram& other)
    {
        for (std::size_t i = 0; i < bin_count; ++i)
            counts[i] += other.counts[i];
    }

    std::uint64_t total() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t c : counts)
            sum += c;
        return sum;
    }
};

// ------------------------------------------------------------- recorder

/// One task's telemetry: the counter deltas and stage times accumulated
/// while the task ran, plus the executor's scheduling measurements.
/// Counters and stage call counts are deterministic in (config, seed);
/// the ns fields are wall-clock observations.
struct Task_telemetry {
    Counters counters;
    Stage_times stages;
    std::uint64_t wall_ns = 0;  ///< scenario run() wall time
    std::uint64_t queue_ns = 0; ///< sweep start -> task start (queue wait)
    std::uint32_t worker = 0;   ///< worker index that ran the task
};

/// Per-worker rollup (utilization = busy_ns / sweep wall time).
struct Worker_stats {
    std::uint64_t busy_ns = 0;
    std::uint64_t tasks = 0;
};

/// The merged telemetry of one sweep, produced by the executor after the
/// workers join: per-task records merged in task-index order, so the
/// counter totals are thread-count invariant.
struct Sweep_telemetry {
    std::size_t threads = 0;     ///< resolved worker count
    std::uint64_t tasks = 0;
    std::uint64_t wall_ns = 0;   ///< whole-sweep wall time
    Counters counters;           ///< merged by task index
    Stage_times stages;          ///< merged by task index
    Latency_histogram latency;   ///< per-task wall times
    std::vector<Worker_stats> workers; ///< indexed by worker id
};

/// The per-thread telemetry sink.  Ownership mirrors dsp::Workspace: the
/// executor owns one Recorder per worker and Binds it for the worker's
/// lifetime; standalone drivers and tests may Bind one around a direct
/// sim run.  Unbound threads record nothing.
class Recorder {
public:
    Recorder() = default;
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// The recorder bound to this thread, or nullptr (telemetry off).
    static Recorder* current();

    /// Scoped thread binding (nested binds restore the previous one).
    class Bind {
    public:
        explicit Bind(Recorder& recorder);
        Bind(const Bind&) = delete;
        Bind& operator=(const Bind&) = delete;
        ~Bind();

    private:
        Recorder* previous_;
    };

    /// Zero the task-scoped accumulators (the executor calls this before
    /// each scenario run).
    void begin_task()
    {
        task_.counters = Counters{};
        task_.stages = Stage_times{};
    }

    /// The accumulators of the task in flight.
    Task_telemetry& task() { return task_; }
    const Task_telemetry& task() const { return task_; }

private:
    Task_telemetry task_;
};

/// True when this thread is recording telemetry.
inline bool enabled() { return Recorder::current() != nullptr; }

/// Count an event (no-op when no recorder is bound).
inline void count(Counter id, std::uint64_t n = 1)
{
    if (Recorder* recorder = Recorder::current())
        recorder->task().counters[id] += n;
}

/// RAII stage-region timer.  Reads the clock only when a recorder is
/// bound, so disabled runs pay one thread-local load per region.
class Stage_timer {
public:
    explicit Stage_timer(Stage stage)
        : recorder_{Recorder::current()}, stage_{stage}
    {
        if (recorder_)
            start_ = std::chrono::steady_clock::now();
    }
    Stage_timer(const Stage_timer&) = delete;
    Stage_timer& operator=(const Stage_timer&) = delete;
    ~Stage_timer()
    {
        if (recorder_) {
            const auto elapsed = std::chrono::steady_clock::now() - start_;
            recorder_->task().stages.add(
                stage_, static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                                .count()));
        }
    }

private:
    Recorder* recorder_;
    Stage stage_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace anc::obs
