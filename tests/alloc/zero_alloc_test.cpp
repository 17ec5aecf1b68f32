// The zero-allocation invariant (PERF.md): on a warm dsp::Workspace,
// each steady-state sample-pipeline kernel performs no heap allocation.
//
// This file is its own test executable (zero_alloc_tests, ctest names
// ZeroAlloc.*) because it replaces the global operator new/delete with a
// counting allocator; linked into anc_tests that replacement would count
// every other suite's allocations too.  Each test warms the kernel with
// two calls, so leased buffers reach their steady-state capacity, then
// asserts that one more call allocates nothing.  The inputs are
// collision-shaped like the simulator's: two 2304-bit MSK frames at
// 25 dB SNR, starting at samples 140 and 280.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "channel/awgn.h"
#include "channel/medium.h"
#include "core/interference_decoder.h"
#include "core/relay.h"
#include "dsp/math_profile.h"
#include "dsp/msk.h"
#include "dsp/workspace.h"
#include "net/topology.h"
#include "phy/detector.h"
#include "phy/pilot.h"
#include "util/bits.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
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
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void* p = std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment * alignment))
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

namespace anc {
namespace {

constexpr std::size_t frame_bits = 2304;
constexpr double snr_db = 25.0;
constexpr std::size_t alice_start = 140;
constexpr std::size_t bob_start = 280;
constexpr std::size_t trailing_noise = 64;

/// Heap allocations made by one call of `body` once two earlier calls
/// have grown every buffer it touches to its steady-state capacity.
template <class Body>
std::uint64_t allocations_when_warm(Body&& body)
{
    body();
    body();
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    body();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

Bits frame(std::uint64_t seed)
{
    Pcg32 rng{seed, 17};
    return random_bits(frame_bits, rng);
}

/// Alice and Bob's frames on the air together, as the router hears them.
struct Collision {
    explicit Collision(dsp::Math_profile profile = dsp::Math_profile::exact,
                       chan::Gain_model gain_model = chan::Gain_model::fixed)
        : medium{noise_power, Pcg32{7, 3}.fork(1), profile}
    {
        net::Link_fading fading;
        fading.model = gain_model;
        fading.coherence_block = 512;
        Pcg32 link_rng = Pcg32{7, 3}.fork(2);
        install_alice_bob(medium, net::Alice_bob_gains{}, fading, link_rng);
        dsp::Msk_modulator{1.0, 0.0}.modulate_into(bits_a, signal_a);
        dsp::Msk_modulator{1.0, 0.0}.modulate_into(frame(0xB1), signal_b);
        on_air = {{nodes.alice, signal_a, alice_start}, {nodes.bob, signal_b, bob_start}};
        medium.receive_into(nodes.router, on_air, trailing_noise, received);
    }

    const double noise_power = chan::noise_power_for_snr_db(snr_db);
    const Bits bits_a = frame(0xB0);
    dsp::Signal signal_a;
    dsp::Signal signal_b;
    chan::Medium medium;
    static constexpr const net::Alice_bob_nodes& nodes = net::alice_bob_nodes;
    std::vector<chan::Transmission> on_air;
    dsp::Signal received;
};

void expect_mix_allocates_nothing(Collision& collision)
{
    auto out = dsp::Workspace::current().signal();
    EXPECT_EQ(allocations_when_warm([&] {
                  collision.medium.receive_into(collision.nodes.router, collision.on_air,
                                                trailing_noise, *out);
              }),
              0u);
    EXPECT_EQ(out->size(), bob_start + collision.signal_b.size() + trailing_noise);
}

void expect_decode_allocates_nothing(dsp::Math_profile profile)
{
    const Collision collision;
    std::vector<double> known_diffs;
    dsp::phase_differences_for_bits_into(collision.bits_a, known_diffs);
    const dsp::Signal_view samples = dsp::Signal_view{collision.received}.subspan(alice_start);
    const Interference_decoder decoder{profile};
    dsp::Workspace& workspace = dsp::Workspace::current();
    auto bits = workspace.bits();
    auto phi_differences = workspace.reals();
    auto match_errors = workspace.reals();
    EXPECT_EQ(allocations_when_warm([&] {
                  decoder.decode_into(samples, known_diffs, 0.95, 0.90, *bits,
                                      *phi_differences, *match_errors);
              }),
              0u);
    EXPECT_FALSE(bits->empty());
}

TEST(ZeroAlloc, Modulate)
{
    const Bits bits = frame(0xA0);
    const dsp::Msk_modulator modulator{1.0, 0.37};
    auto signal = dsp::Workspace::current().signal();
    EXPECT_EQ(allocations_when_warm([&] { modulator.modulate_into(bits, *signal); }), 0u);
    EXPECT_EQ(signal->size(), bits.size() + 1);
}

TEST(ZeroAlloc, MediumMixExact)
{
    Collision collision{dsp::Math_profile::exact};
    expect_mix_allocates_nothing(collision);
}

TEST(ZeroAlloc, MediumMixFast)
{
    Collision collision{dsp::Math_profile::fast};
    expect_mix_allocates_nothing(collision);
}

TEST(ZeroAlloc, MediumMixRayleighBlock)
{
    Collision collision{dsp::Math_profile::exact, chan::Gain_model::rayleigh_block};
    expect_mix_allocates_nothing(collision);
}

TEST(ZeroAlloc, AmplifyAndForward)
{
    const Collision collision;
    auto out = dsp::Workspace::current().signal();
    bool forwarded = false;
    EXPECT_EQ(allocations_when_warm([&] {
                  forwarded = amplify_and_forward_into(collision.received,
                                                       collision.noise_power, 1.0, *out);
              }),
              0u);
    EXPECT_TRUE(forwarded);
}

TEST(ZeroAlloc, Demodulate)
{
    const Bits sent = frame(0xD0);
    dsp::Signal signal;
    dsp::Msk_modulator{1.0, 1.1}.modulate_into(sent, signal);
    const dsp::Msk_demodulator demodulator;
    auto bits = dsp::Workspace::current().bits();
    EXPECT_EQ(allocations_when_warm([&] { demodulator.demodulate_into(signal, *bits); }),
              0u);
    EXPECT_EQ(*bits, sent);
}

TEST(ZeroAlloc, PackedPilotSearch)
{
    // The pilot planted at the last fitting position, so the scan covers
    // the whole frame before it matches.
    Bits bits = frame(0xF5);
    const Bits& pilot = phy::pilot_sequence();
    const std::size_t plant = bits.size() - phy::pilot_length;
    std::copy(pilot.begin(), pilot.end(), bits.begin() + static_cast<std::ptrdiff_t>(plant));
    std::optional<phy::Pattern_match> match;
    EXPECT_EQ(allocations_when_warm(
                  [&] { match = phy::find_pattern(bits, pilot, 0, bits.size(), 6); }),
              0u);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->position, plant);
}

TEST(ZeroAlloc, InterferenceDecodeExact)
{
    expect_decode_allocates_nothing(dsp::Math_profile::exact);
}

TEST(ZeroAlloc, InterferenceDecodeFast)
{
    expect_decode_allocates_nothing(dsp::Math_profile::fast);
}

TEST(ZeroAlloc, PacketDetect)
{
    const Collision collision;
    const phy::Packet_detector detector{collision.noise_power};
    std::optional<phy::Packet_bounds> bounds;
    EXPECT_EQ(allocations_when_warm([&] { bounds = detector.detect(collision.received); }),
              0u);
    ASSERT_TRUE(bounds.has_value());
    EXPECT_GT(bounds->size(), collision.signal_a.size());
}

TEST(ZeroAlloc, InterferenceAnalyze)
{
    const Collision collision;
    const phy::Interference_detector detector{collision.noise_power};
    phy::Interference_report report;
    EXPECT_EQ(allocations_when_warm([&] { report = detector.analyze(collision.received); }),
              0u);
    EXPECT_TRUE(report.interfered);
}

} // namespace
} // namespace anc
