// Self-contained throughput bench for the DSP/PHY sample pipeline — no
// Google Benchmark dependency, unlike the micro_* targets, so it always
// builds and runs (CI included).
//
// Times the Fig. 8 hot path stage by stage — modulate, medium mix, relay
// amplify-and-forward, demodulate, interference decode — plus the full
// alice_bob ANC exchange end-to-end, in samples per second, and counts
// heap allocations per steady-state iteration (the zero-allocation
// invariant of PERF.md).  Stages with a `_fast` suffix run the same
// workload under dsp::Math_profile::fast, whose batch call sites go
// through the runtime-dispatched lane kernels (avx512 ≻ avx2 ≻ scalar;
// PERF.md "Math profiles and the lane kernels"); the unsuffixed stages
// are the historical bit-exact path.  With --min-fast-gain R the process
// exits non-zero unless the fast end-to-end exchange reaches at least R
// times the exact one; the gain line names the backend it measured.
//
// Output: a human table on stdout and, with --json PATH, a BENCH_dsp.json
// document.  With --baseline PATH the measured throughputs are compared
// against a previously recorded document and the process exits non-zero
// when any stage falls below --min-ratio (default 0.75, i.e. a >25%
// regression) of its baseline.
//
// The workload is fully deterministic (fixed seeds, fixed sizes); only
// the measured rates vary run to run.
//
// With --normalize the per-stage ratios are divided by their median
// before the check, cancelling overall machine speed: a slower CI runner
// passes, while any *one* stage regressing relative to the others still
// fails.  CI uses --normalize against the committed baseline.
//
// --stages a,b,c restricts the run to the named stages (the CI profile
// jobs measure only their profile's stages instead of re-measuring
// every exact stage).  The baseline gate then checks only the measured
// stages — a missing *measured* stage still fails it.
//
// The pilot_search / pilot_search_packed pair times phy::find_pattern's
// historical byte-per-bit scan against the packed bit-domain scan
// (PERF.md "Bit-domain pilot search") in bits per second over the same
// haystack — both zero-alloc on warm workspace scratch, enforced like
// every other stage.
//
// --pr N stamps a `"pr": N` field into the JSON document — the
// convention behind the committed BENCH_dsp.json trajectory snapshots
// (PERF.md "Perf trajectory").
//
// --check-trajectory PATH (repeatable) validates trajectory snapshots
// instead of benching: each file must carry the anc.bench.dsp.v1 schema,
// a "pr" stamp, a workload echo, and well-formed stage entries (every
// samples_per_sec positive), and across multiple files — given in
// chronological order — the pr numbers must be strictly increasing.
// Run by CI on the committed BENCH_dsp.json so the trajectory cannot
// silently rot.
//
// The `alice_bob_exchange_telemetry` stage is the exact-profile exchange
// with an obs::Recorder bound (full counter + stage-timer collection,
// OBSERVABILITY.md) — its gap to `alice_bob_exchange` is the telemetry
// overhead, printed always and gated by --max-telemetry-overhead PCT.
//
// Usage: pipeline_throughput [--json PATH] [--baseline PATH]
//                            [--min-ratio R] [--normalize] [--quick]
//                            [--min-fast-gain R]
//                            [--max-telemetry-overhead PCT]
//                            [--stages a,b,c] [--pr N]
//                            [--check-trajectory PATH]...

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "channel/medium.h"
#include "core/interference_decoder.h"
#include "core/relay.h"
#include "dsp/math_profile.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "dsp/workspace.h"
#include "net/topology.h"
#include "phy/pilot.h"
#include "sim/alice_bob.h"
#include "util/bits.h"
#include "util/obs.h"
#include "util/rng.h"
#include "util/simd.h"

// ------------------------------------------------------------ allocation
// Global counting allocator: every heap allocation in the process passes
// through here, so a stage's steady-state allocation count is the
// difference of g_allocations around its loop.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size)
{
    return ::operator new(size);
}

void* operator new(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1)
                                         / static_cast<std::size_t>(align)
                                         * static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace anc;

using Clock = std::chrono::steady_clock;

struct Stage_result {
    std::string name;
    double samples_per_sec = 0.0;
    std::uint64_t samples_per_iteration = 0;
    std::uint64_t iterations = 0;
    std::uint64_t heap_allocs_per_iteration = 0; // steady state, warm buffers
};

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run `body` (which processes `samples_per_iter` samples per call) for
/// at least `min_seconds`, after `warmup` untimed calls, and report the
/// throughput plus the steady-state allocation count of one iteration.
template <class Body>
Stage_result time_stage(const char* name, std::uint64_t samples_per_iter,
                        std::size_t warmup, double min_seconds, Body&& body)
{
    Stage_result result;
    result.name = name;
    result.samples_per_iteration = samples_per_iter;

    for (std::size_t i = 0; i < warmup; ++i)
        body();

    // One post-warmup iteration under the allocation counter.
    const std::uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
    body();
    result.heap_allocs_per_iteration =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;

    // Best of three measurement windows: a transient stall (scheduler,
    // frequency dip) drags a single window but rarely all three, so the
    // max is a far steadier statistic for the CI regression gate while a
    // genuine code regression still shifts it.
    for (int window = 0; window < 3; ++window) {
        std::uint64_t iterations = 0;
        const auto start = Clock::now();
        double elapsed = 0.0;
        do {
            body();
            ++iterations;
            elapsed = seconds_since(start);
        } while (elapsed < min_seconds);
        const double rate =
            static_cast<double>(iterations * samples_per_iter) / elapsed;
        if (rate > result.samples_per_sec) {
            result.samples_per_sec = rate;
            result.iterations = iterations;
        }
    }
    return result;
}

Bits frame_sized_bits(std::size_t count, std::uint64_t seed)
{
    Pcg32 rng{seed, 17};
    return random_bits(count, rng);
}

/// Stage naming convention: "<base>" = exact profile, "<base>_fast" =
/// Math_profile::fast.
std::string stage_name(const char* base, dsp::Math_profile profile)
{
    return profile == dsp::Math_profile::fast ? std::string{base} + "_fast"
                                              : std::string{base};
}

// --------------------------------------------------------------- stages

constexpr std::size_t bench_frame_bits = 2304; // ~payload 2048 + overhead
constexpr double bench_snr_db = 25.0;

Stage_result bench_modulate(double min_seconds)
{
    const Bits bits = frame_sized_bits(bench_frame_bits, 0xA0);
    const dsp::Msk_modulator modulator{1.0, 0.37};
    auto signal = dsp::Workspace::current().signal();
    return time_stage("modulate", bits.size() + 1, 2, min_seconds, [&] {
        modulator.modulate_into(bits, *signal);
    });
}

Stage_result bench_mix(double min_seconds, dsp::Math_profile profile)
{
    const double noise_power = chan::noise_power_for_snr_db(bench_snr_db);
    Pcg32 rng{7, 3};
    chan::Medium medium{noise_power, rng.fork(1), profile};
    net::Alice_bob_nodes nodes;
    net::Alice_bob_gains gains;
    Pcg32 link_rng = rng.fork(2);
    install_alice_bob(medium, nodes, gains, link_rng);

    const Bits bits_a = frame_sized_bits(bench_frame_bits, 0xB0);
    const Bits bits_b = frame_sized_bits(bench_frame_bits, 0xB1);
    const dsp::Msk_modulator modulator{1.0, 0.0};
    const dsp::Signal signal_a = modulator.modulate(bits_a);
    const dsp::Signal signal_b = modulator.modulate(bits_b);

    chan::Transmission ta{nodes.alice, signal_a, 140};
    chan::Transmission tb{nodes.bob, signal_b, 280};
    const std::vector<chan::Transmission> on_air{ta, tb};
    const std::uint64_t mixed = 280 + signal_b.size() + 64;

    auto out = dsp::Workspace::current().signal();
    return time_stage(stage_name("mix", profile).c_str(), mixed, 2, min_seconds, [&] {
        medium.receive_into(nodes.router, on_air, 64, *out);
    });
}

Stage_result bench_fading_mix(double min_seconds)
{
    // The mix stage over Rayleigh block-fading links (the *_fading
    // scenarios): same two overlapped frames, but every link multiplies
    // in a counter-based CN(0,1) coefficient per 512-sample coherence
    // block.  Block-gain draws are stack-local Pcg32 streams, so the
    // zero-allocation invariant covers the fading kernels too.
    const double noise_power = chan::noise_power_for_snr_db(bench_snr_db);
    Pcg32 rng{7, 3};
    chan::Medium medium{noise_power, rng.fork(1)};
    net::Alice_bob_nodes nodes;
    net::Alice_bob_gains gains;
    net::Link_fading fading;
    fading.model = chan::Gain_model::rayleigh_block;
    fading.coherence_block = 512;
    Pcg32 link_rng = rng.fork(2);
    install_alice_bob(medium, nodes, gains, fading, link_rng);

    const Bits bits_a = frame_sized_bits(bench_frame_bits, 0xB0);
    const Bits bits_b = frame_sized_bits(bench_frame_bits, 0xB1);
    const dsp::Msk_modulator modulator{1.0, 0.0};
    const dsp::Signal signal_a = modulator.modulate(bits_a);
    const dsp::Signal signal_b = modulator.modulate(bits_b);

    chan::Transmission ta{nodes.alice, signal_a, 140};
    chan::Transmission tb{nodes.bob, signal_b, 280};
    const std::vector<chan::Transmission> on_air{ta, tb};
    const std::uint64_t mixed = 280 + signal_b.size() + 64;

    auto out = dsp::Workspace::current().signal();
    return time_stage("fading_mix", mixed, 2, min_seconds, [&] {
        medium.receive_into(nodes.router, on_air, 64, *out);
    });
}

Stage_result bench_relay(double min_seconds)
{
    // A realistic relay input: two overlapped frames plus noise.
    const double noise_power = chan::noise_power_for_snr_db(bench_snr_db);
    Pcg32 rng{9, 5};
    chan::Medium medium{noise_power, rng.fork(1)};
    net::Alice_bob_nodes nodes;
    net::Alice_bob_gains gains;
    Pcg32 link_rng = rng.fork(2);
    install_alice_bob(medium, nodes, gains, link_rng);

    const dsp::Msk_modulator modulator{1.0, 0.0};
    const dsp::Signal signal_a = modulator.modulate(frame_sized_bits(bench_frame_bits, 0xC0));
    const dsp::Signal signal_b = modulator.modulate(frame_sized_bits(bench_frame_bits, 0xC1));
    const std::vector<chan::Transmission> on_air{{nodes.alice, signal_a, 140},
                                                 {nodes.bob, signal_b, 280}};
    dsp::Signal received;
    medium.receive_into(nodes.router, on_air, 64, received);

    auto out = dsp::Workspace::current().signal();
    return time_stage("relay", received.size(), 2, min_seconds, [&] {
        amplify_and_forward_into(received, noise_power, 1.0, *out);
    });
}

Stage_result bench_interference_decode(double min_seconds, dsp::Math_profile profile)
{
    // The Eq. 7-8 phase-solver loop over a realistic two-signal collision
    // (the stage the exact profile pins on 4 atan2 calls per sample).
    const double noise_power = chan::noise_power_for_snr_db(bench_snr_db);
    Pcg32 rng{21, 13};
    chan::Medium medium{noise_power, rng.fork(1)};
    net::Alice_bob_nodes nodes;
    net::Alice_bob_gains gains;
    Pcg32 link_rng = rng.fork(2);
    install_alice_bob(medium, nodes, gains, link_rng);

    const Bits bits_a = frame_sized_bits(bench_frame_bits, 0xE0);
    const Bits bits_b = frame_sized_bits(bench_frame_bits, 0xE1);
    const dsp::Msk_modulator modulator{1.0, 0.0};
    const dsp::Signal signal_a = modulator.modulate(bits_a);
    const dsp::Signal signal_b = modulator.modulate(bits_b);
    const std::vector<chan::Transmission> on_air{{nodes.alice, signal_a, 0},
                                                 {nodes.bob, signal_b, 96}};
    dsp::Signal received;
    medium.receive_into(nodes.router, on_air, 0, received);

    const std::vector<double> known_diffs = dsp::phase_differences_for_bits(bits_a);
    const Interference_decoder decoder{profile};
    dsp::Workspace& workspace = dsp::Workspace::current();
    auto bits = workspace.bits();
    auto phi_differences = workspace.reals();
    auto match_errors = workspace.reals();
    return time_stage(stage_name("interference_decode", profile).c_str(),
                      received.size(), 2, min_seconds, [&] {
        decoder.decode_into(received, known_diffs, 0.95, 0.90, *bits,
                            *phi_differences, *match_errors);
    });
}

Stage_result bench_demodulate(double min_seconds)
{
    const dsp::Msk_modulator modulator{1.0, 1.1};
    const dsp::Signal signal = modulator.modulate(frame_sized_bits(bench_frame_bits, 0xD0));
    const dsp::Msk_demodulator demodulator;
    auto bits = dsp::Workspace::current().bits();
    return time_stage("demodulate", signal.size(), 2, min_seconds, [&] {
        demodulator.demodulate_into(signal, *bits);
    });
}

Stage_result bench_pilot_search(double min_seconds, bool packed)
{
    // A frame-sized random haystack with the pilot planted at the very
    // last fitting position: random bits cannot hit zero errors by
    // chance (p ≈ 2^-64 per start), so both variants scan every start
    // before the early break fires — identical full-span work.
    Bits bits = frame_sized_bits(bench_frame_bits, 0xF5);
    const Bits& pilot = phy::pilot_sequence();
    const std::size_t plant = bits.size() - phy::pilot_length;
    for (std::size_t i = 0; i < phy::pilot_length; ++i)
        bits[plant + i] = pilot[i];

    if (!packed) {
        // The historical byte-per-bit loop, preserved as the reference
        // (phy::find_pattern_scalar).
        return time_stage("pilot_search", bits.size(), 2, min_seconds, [&] {
            const auto match =
                phy::find_pattern_scalar(bits, pilot, 0, bits.size(), 6);
            if (!match || match->position != plant)
                std::fprintf(stderr, "warning: pilot search missed the plant\n");
        });
    }
    // The production bit-domain path, including the per-frame packing
    // (workspace-leased words, so the steady state allocates nothing).
    return time_stage("pilot_search_packed", bits.size(), 2, min_seconds, [&] {
        const auto match = phy::find_pattern(bits, pilot, 0, bits.size(), 6);
        if (!match || match->position != plant)
            std::fprintf(stderr, "warning: pilot search missed the plant\n");
    });
}

Stage_result bench_exchange(double min_seconds, bool quick, dsp::Math_profile profile)
{
    sim::Alice_bob_config config;
    config.payload_bits = 2048;
    config.exchanges = quick ? 2 : 4;
    config.snr_db = bench_snr_db;
    config.math_profile = profile;
    config.seed = 12345;

    // Samples the exchange pushes through the pipeline: measure once (the
    // workload is deterministic) and reuse as the per-iteration count.
    const sim::Alice_bob_result probe = sim::run_alice_bob_anc(config);
    const auto samples = static_cast<std::uint64_t>(probe.metrics.airtime_symbols);

    return time_stage(stage_name("alice_bob_exchange", profile).c_str(), samples, 1,
                      min_seconds, [&] {
        const sim::Alice_bob_result result = sim::run_alice_bob_anc(config);
        if (result.metrics.packets_delivered == 0)
            std::fprintf(stderr, "warning: exchange delivered nothing\n");
    });
}

Stage_result bench_exchange_telemetry(double min_seconds, bool quick)
{
    // The exact-profile exchange with full telemetry collection bound,
    // exactly as the executor binds it per worker.  The rate gap to
    // `alice_bob_exchange` is the end-to-end overhead of the obs layer
    // (OBSERVABILITY.md "Overhead"), gated by --max-telemetry-overhead.
    sim::Alice_bob_config config;
    config.payload_bits = 2048;
    config.exchanges = quick ? 2 : 4;
    config.snr_db = bench_snr_db;
    config.math_profile = dsp::Math_profile::exact;
    config.seed = 12345;

    const sim::Alice_bob_result probe = sim::run_alice_bob_anc(config);
    const auto samples = static_cast<std::uint64_t>(probe.metrics.airtime_symbols);

    obs::Recorder recorder;
    const obs::Recorder::Bind bind{recorder};
    return time_stage("alice_bob_exchange_telemetry", samples, 1, min_seconds, [&] {
        recorder.begin_task();
        const sim::Alice_bob_result result = sim::run_alice_bob_anc(config);
        if (result.metrics.packets_delivered == 0)
            std::fprintf(stderr, "warning: exchange delivered nothing\n");
    });
}

// ----------------------------------------------------------------- JSON

void write_json(std::ostream& out, const std::vector<Stage_result>& stages,
                long pr_number)
{
    out << "{\"schema\": \"anc.bench.dsp.v1\",\n";
    if (pr_number >= 0)
        out << " \"pr\": " << pr_number << ",\n";
    out << " \"workload\": {\"frame_bits\": " << bench_frame_bits
        << ", \"snr_db\": " << bench_snr_db << ", \"simd_backend\": \""
        << anc::simd::to_string(anc::simd::active_backend()) << "\"},\n";
    out << " \"stages\": {";
    bool first = true;
    char buffer[64];
    for (const Stage_result& stage : stages) {
        if (!first)
            out << ",";
        first = false;
        std::snprintf(buffer, sizeof buffer, "%.17g", stage.samples_per_sec);
        out << "\n  \"" << stage.name << "\": {"
            << "\"samples_per_sec\": " << buffer
            << ", \"samples_per_iteration\": " << stage.samples_per_iteration
            << ", \"iterations\": " << stage.iterations
            << ", \"heap_allocs_per_iteration\": " << stage.heap_allocs_per_iteration
            << "}";
    }
    out << "\n }}\n";
}

/// Minimal extraction of "<stage>": {"samples_per_sec": <number> from a
/// baseline document written by write_json (not a general JSON parser).
bool baseline_rate(const std::string& text, const std::string& stage, double& rate)
{
    const std::string key = "\"" + stage + "\": {\"samples_per_sec\": ";
    const std::size_t at = text.find(key);
    if (at == std::string::npos)
        return false;
    rate = std::strtod(text.c_str() + at + key.size(), nullptr);
    return rate > 0.0;
}

// ----------------------------------------------------- trajectory check

/// Validate one anc.bench.dsp.v1 snapshot: schema, "pr" stamp, workload
/// echo, and well-formed stage entries (every samples_per_sec positive).
/// Uses the same string-search approach as baseline_rate — the documents
/// are machine-written by write_json, not arbitrary JSON.
bool check_snapshot(const std::string& path, const std::string& text, long& pr_out)
{
    const auto fail = [&](const char* what) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(), what);
        return false;
    };
    if (text.find("\"schema\": \"anc.bench.dsp.v1\"") == std::string::npos)
        return fail("missing or wrong \"schema\" (want anc.bench.dsp.v1)");
    const std::string pr_key = "\"pr\": ";
    const std::size_t pr_at = text.find(pr_key);
    if (pr_at == std::string::npos)
        return fail("missing \"pr\" stamp (write snapshots with --pr N)");
    pr_out = std::strtol(text.c_str() + pr_at + pr_key.size(), nullptr, 10);
    if (pr_out <= 0)
        return fail("\"pr\" stamp must be a positive integer");
    if (text.find("\"workload\":") == std::string::npos)
        return fail("missing \"workload\" echo");
    if (text.find("\"stages\":") == std::string::npos)
        return fail("missing \"stages\" object");

    const std::string rate_key = "\"samples_per_sec\": ";
    std::size_t stage_count = 0;
    for (std::size_t at = text.find(rate_key); at != std::string::npos;
         at = text.find(rate_key, at + rate_key.size())) {
        const double rate = std::strtod(text.c_str() + at + rate_key.size(), nullptr);
        if (!(rate > 0.0))
            return fail("a stage has a non-positive samples_per_sec");
        ++stage_count;
    }
    if (stage_count == 0)
        return fail("no stage entries found");
    std::printf("ok: %s (pr %ld, %zu stages)\n", path.c_str(), pr_out, stage_count);
    return true;
}

/// --check-trajectory driver: every file valid, pr strictly increasing
/// across the files in the order given.
int check_trajectory(const std::vector<std::string>& paths)
{
    long previous_pr = 0;
    for (const std::string& path : paths) {
        std::ifstream in{path};
        if (!in) {
            std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        long pr = 0;
        if (!check_snapshot(path, buffer.str(), pr))
            return 1;
        if (pr <= previous_pr) {
            std::fprintf(stderr,
                         "error: %s: pr %ld not greater than preceding snapshot's %ld "
                         "(trajectory must be chronological)\n",
                         path.c_str(), pr, previous_pr);
            return 1;
        }
        previous_pr = pr;
    }
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    std::string json_path;
    std::string baseline_path;
    std::string stage_filter;
    std::vector<std::string> trajectory_paths;
    double min_ratio = 0.75;
    double min_fast_gain = 0.0;
    double max_telemetry_overhead = 0.0;
    long pr_number = -1;
    bool normalize = false;
    bool quick = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--baseline" && i + 1 < argc)
            baseline_path = argv[++i];
        else if (arg == "--min-ratio" && i + 1 < argc)
            min_ratio = std::strtod(argv[++i], nullptr);
        else if (arg == "--min-fast-gain" && i + 1 < argc)
            min_fast_gain = std::strtod(argv[++i], nullptr);
        else if (arg == "--max-telemetry-overhead" && i + 1 < argc)
            max_telemetry_overhead = std::strtod(argv[++i], nullptr);
        else if (arg == "--stages" && i + 1 < argc)
            stage_filter = argv[++i];
        else if (arg == "--pr" && i + 1 < argc)
            pr_number = std::strtol(argv[++i], nullptr, 10);
        else if (arg == "--check-trajectory" && i + 1 < argc)
            trajectory_paths.push_back(argv[++i]);
        else if (arg == "--normalize")
            normalize = true;
        else if (arg == "--quick")
            quick = true;
        else {
            std::fprintf(stderr,
                         "usage: %s [--json PATH] [--baseline PATH] "
                         "[--min-ratio R] [--normalize] [--quick] "
                         "[--min-fast-gain R] "
                         "[--max-telemetry-overhead PCT] "
                         "[--stages a,b,c] [--pr N] "
                         "[--check-trajectory PATH]...\n",
                         argv[0]);
            return 2;
        }
    }

    // Validation mode: check the snapshot files and exit — no benching.
    if (!trajectory_paths.empty())
        return check_trajectory(trajectory_paths);

    const double min_seconds = quick ? 0.1 : 0.5;

    constexpr dsp::Math_profile exact = dsp::Math_profile::exact;
    constexpr dsp::Math_profile fast = dsp::Math_profile::fast;

    // The stage registry, in canonical (table and baseline) order.  The
    // --stages filter selects by name; unknown names are an error so a
    // typo'd CI job cannot silently measure nothing.
    struct Stage_def {
        const char* name;
        Stage_result (*run)(double, bool);
    };
    const Stage_def defs[] = {
        {"modulate", [](double s, bool) { return bench_modulate(s); }},
        {"mix", [](double s, bool) { return bench_mix(s, exact); }},
        {"mix_fast", [](double s, bool) { return bench_mix(s, fast); }},
        {"fading_mix", [](double s, bool) { return bench_fading_mix(s); }},
        {"relay", [](double s, bool) { return bench_relay(s); }},
        {"demodulate", [](double s, bool) { return bench_demodulate(s); }},
        {"pilot_search", [](double s, bool) { return bench_pilot_search(s, false); }},
        {"pilot_search_packed",
         [](double s, bool) { return bench_pilot_search(s, true); }},
        {"interference_decode",
         [](double s, bool) { return bench_interference_decode(s, exact); }},
        {"interference_decode_fast",
         [](double s, bool) { return bench_interference_decode(s, fast); }},
        {"alice_bob_exchange",
         [](double s, bool q) { return bench_exchange(s, q, exact); }},
        {"alice_bob_exchange_fast",
         [](double s, bool q) { return bench_exchange(s, q, fast); }},
        {"alice_bob_exchange_telemetry",
         [](double s, bool q) { return bench_exchange_telemetry(s, q); }},
    };

    std::vector<std::string> wanted;
    if (!stage_filter.empty()) {
        std::size_t pos = 0;
        while (pos <= stage_filter.size()) {
            const std::size_t comma = stage_filter.find(',', pos);
            const std::string name =
                stage_filter.substr(pos, comma == std::string::npos
                                             ? std::string::npos
                                             : comma - pos);
            if (!name.empty())
                wanted.push_back(name);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        for (const std::string& name : wanted) {
            const bool known =
                std::any_of(std::begin(defs), std::end(defs),
                            [&](const Stage_def& def) { return name == def.name; });
            if (!known) {
                std::fprintf(stderr, "error: unknown stage \"%s\"\n", name.c_str());
                return 2;
            }
        }
    }
    const auto selected = [&](const char* name) {
        return wanted.empty()
               || std::find(wanted.begin(), wanted.end(), name) != wanted.end();
    };

    std::vector<Stage_result> stages;
    for (const Stage_def& def : defs)
        if (selected(def.name))
            stages.push_back(def.run(min_seconds, quick));

    std::printf("%-20s %16s %12s %10s %8s\n", "stage", "samples/sec", "samples/iter",
                "iters", "allocs");
    bool alloc_violation = false;
    for (const Stage_result& stage : stages) {
        std::printf("%-20s %16.0f %12llu %10llu %8llu\n", stage.name.c_str(),
                    stage.samples_per_sec,
                    static_cast<unsigned long long>(stage.samples_per_iteration),
                    static_cast<unsigned long long>(stage.iterations),
                    static_cast<unsigned long long>(stage.heap_allocs_per_iteration));
        // The sample-pipeline kernels must be allocation-free on a warm
        // workspace (PERF.md); the full exchanges (both profiles) are
        // exempt — their packet bookkeeping (frames, payloads, flows)
        // escapes by design.
        if (stage.name.rfind("alice_bob_exchange", 0) != 0
            && stage.heap_allocs_per_iteration != 0)
            alloc_violation = true;
    }
    if (alloc_violation) {
        std::fprintf(stderr,
                     "error: a sample-pipeline stage allocated on a warm workspace "
                     "(zero-allocation invariant, see PERF.md)\n");
        return 1;
    }

    // The fast profile's end-to-end payoff, printed always and gated by
    // --min-fast-gain.  The gates fire *after* the JSON write below, so a
    // failing run still leaves its diagnostic artifact — same contract
    // as the baseline gate.
    bool gain_failed = false;
    {
        const auto e2e_rate = [&](const char* name) {
            for (const Stage_result& stage : stages)
                if (stage.name == name)
                    return stage.samples_per_sec;
            return 0.0;
        };
        const double exact_e2e = e2e_rate("alice_bob_exchange");
        const double fast_e2e = e2e_rate("alice_bob_exchange_fast");
        const double pilot_scalar = e2e_rate("pilot_search");
        const double pilot_packed = e2e_rate("pilot_search_packed");
        if (pilot_scalar > 0.0 && pilot_packed > 0.0)
            std::printf("\npacked pilot search gain: %.2fx (%.0f -> %.0f bits/s)\n",
                        pilot_packed / pilot_scalar, pilot_scalar, pilot_packed);
        if (exact_e2e > 0.0 && fast_e2e > 0.0) {
            const double gain = fast_e2e / exact_e2e;
            std::printf("\nfast profile e2e gain: %.2fx (%.0f -> %.0f samples/s, "
                        "backend %s)\n",
                        gain, exact_e2e, fast_e2e,
                        anc::simd::to_string(anc::simd::active_backend()));
            if (min_fast_gain > 0.0 && gain < min_fast_gain) {
                std::fprintf(stderr,
                             "error: fast e2e gain %.2fx below required %.2fx\n",
                             gain, min_fast_gain);
                gain_failed = true;
            }
        }

        // Telemetry overhead: how much the fully-instrumented exchange
        // trails the plain one.  Negative readings are measurement noise
        // (the instrumented run happened to win a window) — report 0.
        const double telemetry_e2e = e2e_rate("alice_bob_exchange_telemetry");
        if (exact_e2e > 0.0 && telemetry_e2e > 0.0) {
            const double overhead_pct =
                std::max(0.0, (1.0 - telemetry_e2e / exact_e2e) * 100.0);
            std::printf("telemetry e2e overhead: %.2f%% (%.0f -> %.0f samples/s)\n",
                        overhead_pct, exact_e2e, telemetry_e2e);
            if (max_telemetry_overhead > 0.0 && overhead_pct > max_telemetry_overhead) {
                std::fprintf(stderr,
                             "error: telemetry overhead %.2f%% above allowed %.2f%%\n",
                             overhead_pct, max_telemetry_overhead);
                gain_failed = true;
            }
        }
    }

    if (!json_path.empty()) {
        std::ofstream out{json_path};
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
            return 2;
        }
        write_json(out, stages, pr_number);
        std::printf("\nwrote %s\n", json_path.c_str());
    }

    if (!baseline_path.empty()) {
        std::ifstream in{baseline_path};
        if (!in) {
            std::fprintf(stderr, "error: cannot read baseline %s\n",
                         baseline_path.c_str());
            return 2;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        const std::string baseline = buffer.str();

        // First pass: collect the per-stage ratios.  A stage missing
        // from the baseline fails the gate — otherwise a renamed stage
        // or a stale baseline would make the whole check vacuous.
        std::vector<std::pair<const Stage_result*, double>> ratios;
        bool missing = false;
        for (const Stage_result& stage : stages) {
            double expected = 0.0;
            if (baseline_rate(baseline, stage.name, expected)) {
                ratios.emplace_back(&stage, stage.samples_per_sec / expected);
            } else {
                std::fprintf(stderr, "error: stage \"%s\" not in baseline %s\n",
                             stage.name.c_str(), baseline_path.c_str());
                missing = true;
            }
        }
        if (missing || ratios.empty())
            return 1;
        double scale = 1.0;
        if (normalize && !ratios.empty()) {
            // Median ratio = the machine-speed factor; dividing it out
            // leaves only *relative* stage regressions.
            std::vector<double> sorted;
            for (const auto& [stage, ratio] : ratios)
                sorted.push_back(ratio);
            std::sort(sorted.begin(), sorted.end());
            scale = sorted[sorted.size() / 2];
            std::printf("\nnormalizing by median ratio %.3f\n", scale);
        }

        bool failed = false;
        std::printf("\n%-20s %16s %16s %8s\n", "stage", "baseline", "measured", "ratio");
        for (const auto& [stage, raw_ratio] : ratios) {
            const double ratio = raw_ratio / scale;
            std::printf("%-20s %16.0f %16.0f %8.2f%s\n", stage->name.c_str(),
                        stage->samples_per_sec / raw_ratio, stage->samples_per_sec,
                        ratio, ratio < min_ratio ? "  REGRESSION" : "");
            if (ratio < min_ratio)
                failed = true;
        }
        if (failed) {
            std::fprintf(stderr,
                         "error: throughput regressed more than %.0f%% on at least "
                         "one stage\n",
                         (1.0 - min_ratio) * 100.0);
            return 1;
        }
    }
    return gain_failed ? 1 : 0;
}
