// Layer spans for the traced anc_sweep build.
//
// Each `__wrap_<mangled>` below replaces one cross-object call into a
// layer's public entry point (the linker's --wrap, see CMakeLists.txt):
// it opens a span, calls `__real_<mangled>` — the unchanged function —
// and closes the span.  Spans nest on a per-thread stack, so a span's
// self time is its duration minus the durations of the spans it
// contains; self times of the spans inside a task (a sim::run_* call)
// add up to the task's duration exactly.
//
// A replaced global operator new charges every heap allocation to the
// innermost open span on the allocating thread.
//
// Nothing here touches program state: the wrappers pass arguments and
// results through unchanged, so traced artifacts are byte-identical to
// untraced ones (run.py checks that).  Totals stay in memory, per
// thread, and are written as one JSON object at process exit to the
// file named by SWEEPBENCH_TRACE.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "channel/medium.h"
#include "core/amplitude_estimator.h"
#include "core/anc_receiver.h"
#include "core/interference_decoder.h"
#include "core/relay.h"
#include "dsp/msk.h"
#include "engine/emit.h"
#include "engine/journal.h"
#include "engine/metrics.h"
#include "engine/report.h"
#include "net/node.h"
#include "phy/detector.h"
#include "phy/pilot.h"
#include "sim/alice_bob.h"
#include "sim/chain.h"
#include "sim/x_topology.h"

namespace sweepbench {

/// CLOCK_MONOTONIC in ns; defined in probe.cpp, which the traced build links.
std::uint64_t monotonic_ns();

} // namespace sweepbench

namespace {

using namespace anc;
using sweepbench::monotonic_ns;

enum Kind : std::uint8_t {
    sim_task,
    net_tx,
    dsp_modulate,
    dsp_demod,
    channel_rx,
    phy_detect,
    phy_analyze,
    phy_pilot,
    core_relay,
    core_rx,
    core_amplitude,
    core_decode,
    engine_journal,
    engine_emit,
    kind_count,
};

constexpr const char* kind_names[kind_count] = {
    "sim",         "net.tx",        "dsp.modulate",   "dsp.demod",   "channel",
    "phy.detect",  "phy.analyze",   "phy.pilot",      "core.relay",  "core.rx",
    "core.amplitude", "core.decode", "engine.journal", "engine.emit",
};

constexpr std::size_t receive_status_count = 5;

struct Kind_totals {
    std::uint64_t calls = 0;
    std::uint64_t samples = 0;      ///< samples (bits for pilot) the calls processed
    std::uint64_t incl_ns = 0;
    std::uint64_t self_ns_task = 0; ///< self time inside a sim::run_* span
    std::uint64_t self_ns_other = 0;
    std::uint64_t allocs = 0;
};

struct Frame {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t samples;
    Kind kind;
    bool collision; ///< core.rx only: an analyze() inside found interference
    std::uint8_t status; ///< core.rx only: the Receive_status returned
};

/// Growable array of durations on malloc/realloc, so recording one never
/// goes through the counted operator new.
struct Durations {
    std::uint64_t* data = nullptr;
    std::size_t size = 0;
    std::size_t capacity = 0;

    void push(std::uint64_t value)
    {
        if (size == capacity) {
            const std::size_t grown = capacity == 0 ? 1024 : capacity * 2;
            auto* moved = static_cast<std::uint64_t*>(
                std::realloc(data, grown * sizeof(std::uint64_t)));
            if (moved == nullptr)
                return;
            data = moved;
            capacity = grown;
        }
        data[size++] = value;
    }
};

constexpr unsigned max_depth = 32;

struct Thread_state {
    Frame stack[max_depth];
    unsigned depth;
    Kind_totals kinds[kind_count];
    std::uint64_t rx_status[receive_status_count];
    std::uint64_t rx_clean_calls; ///< status clean, no collision seen
    std::uint64_t rx_clean_ns;
    std::uint64_t rx_collision_calls;
    std::uint64_t rx_collision_ns;
    std::uint64_t rx_collision_decoded;
    std::uint64_t pilot_scans; ///< calls that reach the program's pilot_searches/pilot_degenerate counters
    Durations task_ns;
    Durations journal_ns;
};

constexpr std::size_t max_threads = 1024;
Thread_state* g_threads[max_threads];
std::atomic<std::size_t> g_thread_count{0};

thread_local Thread_state* t_state = nullptr;

Thread_state* thread_state()
{
    if (t_state == nullptr) {
        // calloc, not new: creating the state must not count as an allocation.
        auto* state = static_cast<Thread_state*>(std::calloc(1, sizeof(Thread_state)));
        if (state == nullptr)
            std::abort();
        const std::size_t slot = g_thread_count.fetch_add(1);
        if (slot < max_threads)
            g_threads[slot] = state;
        t_state = state;
    }
    return t_state;
}

class Span {
public:
    explicit Span(Kind kind, std::uint64_t samples = 0) : state_{thread_state()}
    {
        if (state_->depth == max_depth) {
            state_ = nullptr;
            return;
        }
        Frame& frame = state_->stack[state_->depth++];
        frame = Frame{0, 0, samples, kind, false, 0};
        frame.start_ns = monotonic_ns();
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span()
    {
        if (state_ != nullptr)
            close(*state_);
    }

    void set_samples(std::uint64_t samples)
    {
        if (state_ != nullptr)
            state_->stack[state_->depth - 1].samples = samples;
    }

    void set_status(Receive_status status)
    {
        if (state_ != nullptr)
            state_->stack[state_->depth - 1].status = static_cast<std::uint8_t>(status);
    }

private:
    static void close(Thread_state& state)
    {
        const std::uint64_t end = monotonic_ns();
        const Frame frame = state.stack[--state.depth];
        const std::uint64_t incl = end - frame.start_ns;
        const std::uint64_t self = incl - std::min(frame.child_ns, incl);
        const bool in_task = frame.kind == sim_task
                             || (state.depth > 0 && state.stack[0].kind == sim_task);

        Kind_totals& totals = state.kinds[frame.kind];
        ++totals.calls;
        totals.samples += frame.samples;
        totals.incl_ns += incl;
        (in_task ? totals.self_ns_task : totals.self_ns_other) += self;
        if (state.depth > 0)
            state.stack[state.depth - 1].child_ns += incl;

        if (frame.kind == sim_task)
            state.task_ns.push(incl);
        else if (frame.kind == engine_journal)
            state.journal_ns.push(incl);
        else if (frame.kind == core_rx) {
            ++state.rx_status[frame.status];
            if (frame.collision) {
                ++state.rx_collision_calls;
                state.rx_collision_ns += incl;
                if (frame.status
                    == static_cast<std::uint8_t>(Receive_status::decoded_interference))
                    ++state.rx_collision_decoded;
            } else if (frame.status == static_cast<std::uint8_t>(Receive_status::clean)) {
                ++state.rx_clean_calls;
                state.rx_clean_ns += incl;
            }
        }
    }

    Thread_state* state_;
};

/// analyze() found a collision: mark the enclosing core.rx span.
void mark_collision()
{
    Thread_state& state = *thread_state();
    for (unsigned i = state.depth; i-- > 0;)
        if (state.stack[i].kind == core_rx) {
            state.stack[i].collision = true;
            return;
        }
}

void count_allocation()
{
    Thread_state* state = t_state;
    if (state != nullptr && state->depth > 0)
        ++state->kinds[state->stack[state->depth - 1].kind].allocs;
}

/// Nearest-rank percentile (sorts in place).
std::uint64_t percentile(Durations& values, double q)
{
    if (values.size == 0)
        return 0;
    std::sort(values.data, values.data + values.size);
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size)));
    rank = std::clamp<std::size_t>(rank, 1, values.size);
    return values.data[rank - 1];
}

void merge_durations(Durations& into, const Durations& from)
{
    for (std::size_t i = 0; i < from.size; ++i)
        into.push(from.data[i]);
}

__attribute__((destructor)) void write_trace()
{
    const char* path = std::getenv("SWEEPBENCH_TRACE");
    if (path == nullptr)
        return;
    Thread_state total{};
    const std::size_t threads = std::min(g_thread_count.load(), max_threads);
    for (std::size_t t = 0; t < threads; ++t) {
        const Thread_state& state = *g_threads[t];
        for (std::size_t k = 0; k < kind_count; ++k) {
            total.kinds[k].calls += state.kinds[k].calls;
            total.kinds[k].samples += state.kinds[k].samples;
            total.kinds[k].incl_ns += state.kinds[k].incl_ns;
            total.kinds[k].self_ns_task += state.kinds[k].self_ns_task;
            total.kinds[k].self_ns_other += state.kinds[k].self_ns_other;
            total.kinds[k].allocs += state.kinds[k].allocs;
        }
        for (std::size_t s = 0; s < receive_status_count; ++s)
            total.rx_status[s] += state.rx_status[s];
        total.rx_clean_calls += state.rx_clean_calls;
        total.rx_clean_ns += state.rx_clean_ns;
        total.rx_collision_calls += state.rx_collision_calls;
        total.rx_collision_ns += state.rx_collision_ns;
        total.rx_collision_decoded += state.rx_collision_decoded;
        total.pilot_scans += state.pilot_scans;
        merge_durations(total.task_ns, state.task_ns);
        merge_durations(total.journal_ns, state.journal_ns);
    }

    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr)
        return;
    const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
    std::fprintf(out, "{\"threads\": %zu, \"kinds\": {", threads);
    for (std::size_t k = 0; k < kind_count; ++k) {
        const Kind_totals& t = total.kinds[k];
        std::fprintf(out,
                     "%s\"%s\": {\"calls\": %llu, \"samples\": %llu, \"incl_ns\": %llu, "
                     "\"self_ns_task\": %llu, \"self_ns_other\": %llu, \"allocs\": %llu}",
                     k == 0 ? "" : ", ", kind_names[k], u(t.calls), u(t.samples),
                     u(t.incl_ns), u(t.self_ns_task), u(t.self_ns_other), u(t.allocs));
    }
    std::fprintf(out,
                 "}, \"rx_status\": [%llu, %llu, %llu, %llu, %llu], \"rx_clean_calls\": %llu, "
                 "\"rx_clean_ns\": %llu, "
                 "\"rx_collision_calls\": %llu, \"rx_collision_ns\": %llu, "
                 "\"rx_collision_decoded\": %llu, \"pilot_scans\": %llu, "
                 "\"task_ns_p50\": %llu, \"task_ns_p99\": %llu, "
                 "\"journal_ns_p50\": %llu, \"journal_ns_p99\": %llu}\n",
                 u(total.rx_status[0]), u(total.rx_status[1]), u(total.rx_status[2]),
                 u(total.rx_status[3]), u(total.rx_status[4]), u(total.rx_clean_calls),
                 u(total.rx_clean_ns),
                 u(total.rx_collision_calls), u(total.rx_collision_ns),
                 u(total.rx_collision_decoded), u(total.pilot_scans),
                 u(percentile(total.task_ns, 0.50)), u(percentile(total.task_ns, 0.99)),
                 u(percentile(total.journal_ns, 0.50)),
                 u(percentile(total.journal_ns, 0.99)));
    std::fclose(out);
}

} // namespace

// ------------------------------------------------------- heap allocations

void* operator new(std::size_t size)
{
    count_allocation();
    if (void* memory = std::malloc(size == 0 ? 1 : size))
        return memory;
    throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align)
{
    count_allocation();
    void* memory = nullptr;
    const std::size_t alignment =
        std::max(static_cast<std::size_t>(align), sizeof(void*));
    if (posix_memalign(&memory, alignment, size == 0 ? 1 : size) == 0)
        return memory;
    throw std::bad_alloc{};
}

// ------------------------------------------------------------ wrappers
//
// Parameters mirror the wrapped declarations; a member function takes its
// object as the first parameter.

using dsp::Signal;
using dsp::Signal_view;

extern "C" {

// ---- sim: one task is one sim::run_* call

sim::Alice_bob_result __real__ZN3anc3sim25run_alice_bob_traditionalERKNS0_16Alice_bob_configE(const sim::Alice_bob_config&);
sim::Alice_bob_result __wrap__ZN3anc3sim25run_alice_bob_traditionalERKNS0_16Alice_bob_configE(const sim::Alice_bob_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim25run_alice_bob_traditionalERKNS0_16Alice_bob_configE(config);
}

sim::Alice_bob_result __real__ZN3anc3sim18run_alice_bob_copeERKNS0_16Alice_bob_configE(const sim::Alice_bob_config&);
sim::Alice_bob_result __wrap__ZN3anc3sim18run_alice_bob_copeERKNS0_16Alice_bob_configE(const sim::Alice_bob_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim18run_alice_bob_copeERKNS0_16Alice_bob_configE(config);
}

sim::Alice_bob_result __real__ZN3anc3sim17run_alice_bob_ancERKNS0_16Alice_bob_configE(const sim::Alice_bob_config&);
sim::Alice_bob_result __wrap__ZN3anc3sim17run_alice_bob_ancERKNS0_16Alice_bob_configE(const sim::Alice_bob_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim17run_alice_bob_ancERKNS0_16Alice_bob_configE(config);
}

sim::X_result __real__ZN3anc3sim17run_x_traditionalERKNS0_8X_configE(const sim::X_config&);
sim::X_result __wrap__ZN3anc3sim17run_x_traditionalERKNS0_8X_configE(const sim::X_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim17run_x_traditionalERKNS0_8X_configE(config);
}

sim::X_result __real__ZN3anc3sim10run_x_copeERKNS0_8X_configE(const sim::X_config&);
sim::X_result __wrap__ZN3anc3sim10run_x_copeERKNS0_8X_configE(const sim::X_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim10run_x_copeERKNS0_8X_configE(config);
}

sim::X_result __real__ZN3anc3sim9run_x_ancERKNS0_8X_configE(const sim::X_config&);
sim::X_result __wrap__ZN3anc3sim9run_x_ancERKNS0_8X_configE(const sim::X_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim9run_x_ancERKNS0_8X_configE(config);
}

sim::Chain_result __real__ZN3anc3sim21run_chain_traditionalERKNS0_12Chain_configE(const sim::Chain_config&);
sim::Chain_result __wrap__ZN3anc3sim21run_chain_traditionalERKNS0_12Chain_configE(const sim::Chain_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim21run_chain_traditionalERKNS0_12Chain_configE(config);
}

sim::Chain_result __real__ZN3anc3sim13run_chain_ancERKNS0_12Chain_configE(const sim::Chain_config&);
sim::Chain_result __wrap__ZN3anc3sim13run_chain_ancERKNS0_12Chain_configE(const sim::Chain_config& config)
{
    const Span span{sim_task};
    return __real__ZN3anc3sim13run_chain_ancERKNS0_12Chain_configE(config);
}

// ---- net

void __real__ZN3anc3net8Net_node13transmit_intoERKNS0_6PacketERNS_5Pcg32ERSt6vectorISt7complexIdESaIS9_EE(
    net::Net_node*, const net::Packet&, Pcg32&, Signal&);
void __wrap__ZN3anc3net8Net_node13transmit_intoERKNS0_6PacketERNS_5Pcg32ERSt6vectorISt7complexIdESaIS9_EE(
    net::Net_node* self, const net::Packet& packet, Pcg32& rng, Signal& out)
{
    Span span{net_tx};
    __real__ZN3anc3net8Net_node13transmit_intoERKNS0_6PacketERNS_5Pcg32ERSt6vectorISt7complexIdESaIS9_EE(
        self, packet, rng, out);
    span.set_samples(out.size());
}

// ---- dsp

void __real__ZNK3anc3dsp13Msk_modulator13modulate_intoESt4spanIKhLm18446744073709551615EERSt6vectorISt7complexIdESaIS7_EE(
    const dsp::Msk_modulator*, std::span<const std::uint8_t>, Signal&);
void __wrap__ZNK3anc3dsp13Msk_modulator13modulate_intoESt4spanIKhLm18446744073709551615EERSt6vectorISt7complexIdESaIS7_EE(
    const dsp::Msk_modulator* self, std::span<const std::uint8_t> bits, Signal& out)
{
    Span span{dsp_modulate};
    __real__ZNK3anc3dsp13Msk_modulator13modulate_intoESt4spanIKhLm18446744073709551615EERSt6vectorISt7complexIdESaIS7_EE(
        self, bits, out);
    span.set_samples(out.size());
}

void __real__ZNK3anc3dsp15Msk_demodulator15demodulate_intoESt4spanIKSt7complexIdELm18446744073709551615EERSt6vectorIhSaIhEE(
    const dsp::Msk_demodulator*, Signal_view, Bits&);
void __wrap__ZNK3anc3dsp15Msk_demodulator15demodulate_intoESt4spanIKSt7complexIdELm18446744073709551615EERSt6vectorIhSaIhEE(
    const dsp::Msk_demodulator* self, Signal_view signal, Bits& out)
{
    const Span span{dsp_demod, signal.size()};
    __real__ZNK3anc3dsp15Msk_demodulator15demodulate_intoESt4spanIKSt7complexIdELm18446744073709551615EERSt6vectorIhSaIhEE(
        self, signal, out);
}

// ---- channel

void __real__ZN3anc4chan6Medium12receive_intoEjSt4spanIKNS0_12TransmissionELm18446744073709551615EEmRSt6vectorISt7complexIdESaIS8_EE(
    chan::Medium*, chan::Node_id, std::span<const chan::Transmission>, std::size_t, Signal&);
void __wrap__ZN3anc4chan6Medium12receive_intoEjSt4spanIKNS0_12TransmissionELm18446744073709551615EEmRSt6vectorISt7complexIdESaIS8_EE(
    chan::Medium* self, chan::Node_id receiver,
    std::span<const chan::Transmission> transmissions, std::size_t trailing_noise,
    Signal& out)
{
    Span span{channel_rx};
    __real__ZN3anc4chan6Medium12receive_intoEjSt4spanIKNS0_12TransmissionELm18446744073709551615EEmRSt6vectorISt7complexIdESaIS8_EE(
        self, receiver, transmissions, trailing_noise, out);
    span.set_samples(out.size());
}

// ---- phy

std::optional<phy::Packet_bounds>
__real__ZNK3anc3phy15Packet_detector6detectESt4spanIKSt7complexIdELm18446744073709551615EE(
    const phy::Packet_detector*, Signal_view);
std::optional<phy::Packet_bounds>
__wrap__ZNK3anc3phy15Packet_detector6detectESt4spanIKSt7complexIdELm18446744073709551615EE(
    const phy::Packet_detector* self, Signal_view signal)
{
    const Span span{phy_detect, signal.size()};
    return __real__ZNK3anc3phy15Packet_detector6detectESt4spanIKSt7complexIdELm18446744073709551615EE(
        self, signal);
}

phy::Interference_report
__real__ZNK3anc3phy21Interference_detector7analyzeESt4spanIKSt7complexIdELm18446744073709551615EE(
    const phy::Interference_detector*, Signal_view);
phy::Interference_report
__wrap__ZNK3anc3phy21Interference_detector7analyzeESt4spanIKSt7complexIdELm18446744073709551615EE(
    const phy::Interference_detector* self, Signal_view packet)
{
    phy::Interference_report report;
    {
        const Span span{phy_analyze, packet.size()};
        report =
            __real__ZNK3anc3phy21Interference_detector7analyzeESt4spanIKSt7complexIdELm18446744073709551615EE(
                self, packet);
    }
    if (report.interfered)
        mark_collision();
    return report;
}

/// Start positions a pilot search scans: [from, min(to, size - length)].
std::uint64_t scanned_positions(std::size_t size, std::size_t length, std::size_t from,
                                std::size_t to)
{
    if (length == 0 || size < length)
        return 0;
    const std::size_t last = std::min(to, size - length);
    return last >= from ? last - from + 1 : 0;
}

std::optional<phy::Pattern_match>
__real__ZN3anc3phy12find_patternESt4spanIKhLm18446744073709551615EES3_mmm(
    std::span<const std::uint8_t>, std::span<const std::uint8_t>, std::size_t, std::size_t,
    std::size_t);
std::optional<phy::Pattern_match>
__wrap__ZN3anc3phy12find_patternESt4spanIKhLm18446744073709551615EES3_mmm(
    std::span<const std::uint8_t> bits, std::span<const std::uint8_t> pattern,
    std::size_t from, std::size_t to, std::size_t max_errors)
{
    const Span span{phy_pilot, scanned_positions(bits.size(), pattern.size(), from, to)};
    ++thread_state()->pilot_scans;
    return __real__ZN3anc3phy12find_patternESt4spanIKhLm18446744073709551615EES3_mmm(
        bits, pattern, from, to, max_errors);
}

std::optional<phy::Pattern_match>
__real__ZN3anc3phy12find_patternERKNS0_11Packed_bitsERKNS0_14Packed_patternEmmm(
    const phy::Packed_bits&, const phy::Packed_pattern&, std::size_t, std::size_t,
    std::size_t);
std::optional<phy::Pattern_match>
__wrap__ZN3anc3phy12find_patternERKNS0_11Packed_bitsERKNS0_14Packed_patternEmmm(
    const phy::Packed_bits& haystack, const phy::Packed_pattern& pattern, std::size_t from,
    std::size_t to, std::size_t max_errors)
{
    const Span span{phy_pilot,
                    scanned_positions(haystack.bit_count(), pattern.length(), from, to)};
    ++thread_state()->pilot_scans;
    return __real__ZN3anc3phy12find_patternERKNS0_11Packed_bitsERKNS0_14Packed_patternEmmm(
        haystack, pattern, from, to, max_errors);
}

// find_pilot calls find_pattern inside pilot.cpp, where --wrap cannot see
// it, so it is a pilot span of its own.  It reaches the program's pilot
// counters only when the bits can hold a pilot.
std::optional<phy::Pattern_match>
__real__ZN3anc3phy10find_pilotESt4spanIKhLm18446744073709551615EEm(
    std::span<const std::uint8_t>, std::size_t);
std::optional<phy::Pattern_match>
__wrap__ZN3anc3phy10find_pilotESt4spanIKhLm18446744073709551615EEm(
    std::span<const std::uint8_t> bits, std::size_t max_errors)
{
    const Span span{phy_pilot,
                    scanned_positions(bits.size(), phy::pilot_length, 0, bits.size())};
    if (bits.size() >= phy::pilot_length)
        ++thread_state()->pilot_scans;
    return __real__ZN3anc3phy10find_pilotESt4spanIKhLm18446744073709551615EEm(bits,
                                                                              max_errors);
}

// ---- core

bool __real__ZN3anc24amplify_and_forward_intoESt4spanIKSt7complexIdELm18446744073709551615EEddRSt6vectorIS2_SaIS2_EENS_3phy15Packet_detector6ConfigE(
    Signal_view, double, double, Signal&, phy::Packet_detector::Config);
bool __wrap__ZN3anc24amplify_and_forward_intoESt4spanIKSt7complexIdELm18446744073709551615EEddRSt6vectorIS2_SaIS2_EENS_3phy15Packet_detector6ConfigE(
    Signal_view received, double noise_power, double target_power, Signal& out,
    phy::Packet_detector::Config detector)
{
    const Span span{core_relay, received.size()};
    return __real__ZN3anc24amplify_and_forward_intoESt4spanIKSt7complexIdELm18446744073709551615EEddRSt6vectorIS2_SaIS2_EENS_3phy15Packet_detector6ConfigE(
        received, noise_power, target_power, out, detector);
}

Receive_outcome
__real__ZNK3anc12Anc_receiver7receiveESt4spanIKSt7complexIdELm18446744073709551615EERKNS_18Sent_packet_bufferE(
    const Anc_receiver*, Signal_view, const Sent_packet_buffer&);
Receive_outcome
__wrap__ZNK3anc12Anc_receiver7receiveESt4spanIKSt7complexIdELm18446744073709551615EERKNS_18Sent_packet_bufferE(
    const Anc_receiver* self, Signal_view stream, const Sent_packet_buffer& buffer)
{
    Span span{core_rx, stream.size()};
    Receive_outcome outcome =
        __real__ZNK3anc12Anc_receiver7receiveESt4spanIKSt7complexIdELm18446744073709551615EERKNS_18Sent_packet_bufferE(
            self, stream, buffer);
    span.set_status(outcome.status);
    return outcome;
}

std::optional<Amplitude_estimate>
__real__ZN3anc19estimate_amplitudesESt4spanIKSt7complexIdELm18446744073709551615EEdm(
    Signal_view, double, std::size_t);
std::optional<Amplitude_estimate>
__wrap__ZN3anc19estimate_amplitudesESt4spanIKSt7complexIdELm18446744073709551615EEdm(
    Signal_view overlap, double noise_power, std::size_t min_window)
{
    const Span span{core_amplitude, overlap.size()};
    return __real__ZN3anc19estimate_amplitudesESt4spanIKSt7complexIdELm18446744073709551615EEdm(
        overlap, noise_power, min_window);
}

std::optional<Amplitude_estimate>
__real__ZN3anc29estimate_with_known_amplitudeESt4spanIKSt7complexIdELm18446744073709551615EEddm(
    Signal_view, double, double, std::size_t);
std::optional<Amplitude_estimate>
__wrap__ZN3anc29estimate_with_known_amplitudeESt4spanIKSt7complexIdELm18446744073709551615EEddm(
    Signal_view overlap, double noise_power, double known_amplitude, std::size_t min_window)
{
    const Span span{core_amplitude, overlap.size()};
    return __real__ZN3anc29estimate_with_known_amplitudeESt4spanIKSt7complexIdELm18446744073709551615EEddm(
        overlap, noise_power, known_amplitude, min_window);
}

std::optional<Amplitude_estimate>
__real__ZN3anc31estimate_amplitudes_by_varianceESt4spanIKSt7complexIdELm18446744073709551615EEdm(
    Signal_view, double, std::size_t);
std::optional<Amplitude_estimate>
__wrap__ZN3anc31estimate_amplitudes_by_varianceESt4spanIKSt7complexIdELm18446744073709551615EEdm(
    Signal_view overlap, double noise_power, std::size_t min_window)
{
    const Span span{core_amplitude, overlap.size()};
    return __real__ZN3anc31estimate_amplitudes_by_varianceESt4spanIKSt7complexIdELm18446744073709551615EEdm(
        overlap, noise_power, min_window);
}

double __real__ZN3anc27amplitude_from_clean_regionESt4spanIKSt7complexIdELm18446744073709551615EEd(
    Signal_view, double);
double __wrap__ZN3anc27amplitude_from_clean_regionESt4spanIKSt7complexIdELm18446744073709551615EEd(
    Signal_view region, double noise_power)
{
    const Span span{core_amplitude, region.size()};
    return __real__ZN3anc27amplitude_from_clean_regionESt4spanIKSt7complexIdELm18446744073709551615EEd(
        region, noise_power);
}

void __real__ZNK3anc20Interference_decoder11decode_intoESt4spanIKSt7complexIdELm18446744073709551615EES1_IKdLm18446744073709551615EEddRSt6vectorIhSaIhEERS8_IdSaIdEESE_(
    const Interference_decoder*, Signal_view, std::span<const double>, double, double, Bits&,
    std::vector<double>&, std::vector<double>&);
void __wrap__ZNK3anc20Interference_decoder11decode_intoESt4spanIKSt7complexIdELm18446744073709551615EES1_IKdLm18446744073709551615EEddRSt6vectorIhSaIhEERS8_IdSaIdEESE_(
    const Interference_decoder* self, Signal_view samples, std::span<const double> known_diffs,
    double a, double b, Bits& bits, std::vector<double>& phi_differences,
    std::vector<double>& match_errors)
{
    const Span span{core_decode, samples.size()};
    __real__ZNK3anc20Interference_decoder11decode_intoESt4spanIKSt7complexIdELm18446744073709551615EES1_IKdLm18446744073709551615EEddRSt6vectorIhSaIhEERS8_IdSaIdEESE_(
        self, samples, known_diffs, a, b, bits, phi_differences, match_errors);
}

// ---- engine: journal and emitters

using engine::Point_summary;
using engine::Task_result;

void __real__ZN3anc6engine14Journal_writer6appendERKNS0_11Task_resultE(engine::Journal_writer*,
                                                                      const Task_result&);
void __wrap__ZN3anc6engine14Journal_writer6appendERKNS0_11Task_resultE(
    engine::Journal_writer* self, const Task_result& result)
{
    const Span span{engine_journal};
    __real__ZN3anc6engine14Journal_writer6appendERKNS0_11Task_resultE(self, result);
}

void __real__ZN3anc6engine10write_jsonERSoRKSt6vectorINS0_11Task_resultESaIS3_EERKS2_INS0_13Point_summaryESaIS8_EE(
    std::ostream&, const std::vector<Task_result>&, const std::vector<Point_summary>&);
void __wrap__ZN3anc6engine10write_jsonERSoRKSt6vectorINS0_11Task_resultESaIS3_EERKS2_INS0_13Point_summaryESaIS8_EE(
    std::ostream& out, const std::vector<Task_result>& results,
    const std::vector<Point_summary>& points)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine10write_jsonERSoRKSt6vectorINS0_11Task_resultESaIS3_EERKS2_INS0_13Point_summaryESaIS8_EE(
        out, results, points);
}

void __real__ZN3anc6engine15write_tasks_csvERSoRKSt6vectorINS0_11Task_resultESaIS3_EE(
    std::ostream&, const std::vector<Task_result>&);
void __wrap__ZN3anc6engine15write_tasks_csvERSoRKSt6vectorINS0_11Task_resultESaIS3_EE(
    std::ostream& out, const std::vector<Task_result>& results)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine15write_tasks_csvERSoRKSt6vectorINS0_11Task_resultESaIS3_EE(out,
                                                                                    results);
}

void __real__ZN3anc6engine17write_summary_csvERSoRKSt6vectorINS0_13Point_summaryESaIS3_EE(
    std::ostream&, const std::vector<Point_summary>&);
void __wrap__ZN3anc6engine17write_summary_csvERSoRKSt6vectorINS0_13Point_summaryESaIS3_EE(
    std::ostream& out, const std::vector<Point_summary>& points)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine17write_summary_csvERSoRKSt6vectorINS0_13Point_summaryESaIS3_EE(out,
                                                                                       points);
}

void __real__ZN3anc6engine18Json_stream_writer3addERKNS0_11Task_resultE(
    engine::Json_stream_writer*, const Task_result&);
void __wrap__ZN3anc6engine18Json_stream_writer3addERKNS0_11Task_resultE(
    engine::Json_stream_writer* self, const Task_result& result)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine18Json_stream_writer3addERKNS0_11Task_resultE(self, result);
}

void __real__ZN3anc6engine18Json_stream_writer6finishERKSt6vectorINS0_13Point_summaryESaIS3_EE(
    engine::Json_stream_writer*, const std::vector<Point_summary>&);
void __wrap__ZN3anc6engine18Json_stream_writer6finishERKSt6vectorINS0_13Point_summaryESaIS3_EE(
    engine::Json_stream_writer* self, const std::vector<Point_summary>& points)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine18Json_stream_writer6finishERKSt6vectorINS0_13Point_summaryESaIS3_EE(
        self, points);
}

void __real__ZN3anc6engine23Tasks_csv_stream_writer3addERKNS0_11Task_resultE(
    engine::Tasks_csv_stream_writer*, const Task_result&);
void __wrap__ZN3anc6engine23Tasks_csv_stream_writer3addERKNS0_11Task_resultE(
    engine::Tasks_csv_stream_writer* self, const Task_result& result)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine23Tasks_csv_stream_writer3addERKNS0_11Task_resultE(self, result);
}

std::vector<Point_summary>
__real__ZN3anc6engine9aggregateERKSt6vectorINS0_11Task_resultESaIS2_EE(
    const std::vector<Task_result>&);
std::vector<Point_summary>
__wrap__ZN3anc6engine9aggregateERKSt6vectorINS0_11Task_resultESaIS2_EE(
    const std::vector<Task_result>& results)
{
    const Span span{engine_emit};
    return __real__ZN3anc6engine9aggregateERKSt6vectorINS0_11Task_resultESaIS2_EE(results);
}

void __real__ZN3anc6engine10Aggregator3addERKNS0_11Task_resultE(engine::Aggregator*,
                                                                const Task_result&);
void __wrap__ZN3anc6engine10Aggregator3addERKNS0_11Task_resultE(engine::Aggregator* self,
                                                                const Task_result& result)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine10Aggregator3addERKNS0_11Task_resultE(self, result);
}

void __real__ZN3anc6engine18write_metrics_jsonERSoRKNS0_16Metrics_run_infoERKNS0_10Sweep_gridERKNS_3obs15Sweep_telemetryERKSt6vectorINS0_11Task_resultESaISD_EE(
    std::ostream&, const engine::Metrics_run_info&, const engine::Sweep_grid&,
    const obs::Sweep_telemetry&, const std::vector<Task_result>&);
void __wrap__ZN3anc6engine18write_metrics_jsonERSoRKNS0_16Metrics_run_infoERKNS0_10Sweep_gridERKNS_3obs15Sweep_telemetryERKSt6vectorINS0_11Task_resultESaISD_EE(
    std::ostream& out, const engine::Metrics_run_info& info, const engine::Sweep_grid& grid,
    const obs::Sweep_telemetry& telemetry, const std::vector<Task_result>& results)
{
    const Span span{engine_emit};
    __real__ZN3anc6engine18write_metrics_jsonERSoRKNS0_16Metrics_run_infoERKNS0_10Sweep_gridERKNS_3obs15Sweep_telemetryERKSt6vectorINS0_11Task_resultESaISD_EE(
        out, info, grid, telemetry, results);
}

} // extern "C"
