#include "channel/awgn.h"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/workspace.h"
#include "util/db.h"

namespace anc::chan {

Awgn::Awgn(double noise_power, Pcg32 rng, dsp::Math_profile profile)
    : noise_power_{noise_power},
      sigma_per_dim_{std::sqrt(noise_power / 2.0)},
      rng_{rng},
      profile_{profile}
{
    if (!(noise_power >= 0.0))
        throw std::invalid_argument{"Awgn: noise power must be non-negative"};
}

namespace {

/// Angle buckets of the exact noise's sincos pass: the top bits of u2's
/// word.
constexpr unsigned bucket_bits = 6;

/// The exact profile's noise, in bulk.  The historical loop is
///     for (auto& s : signal) s += {sigma * g(), sigma * g()};
/// with g = rng.next_gaussian(), whose pair is r·cos(2π·u2), r·sin(2π·u2)
/// for r = sqrt(-2 ln u1), and u1, u2 the next_u64 draws 2i and 2i + 1
/// of sample i, unless a u1 of 0 was rejected.  Here three passes make
/// the same libm calls on the same doubles with the same arithmetic:
/// (1) all 2n words on Pcg32's leapfrogged lanes; (2) the radii; (3) sin,
/// cos and the add, visiting the samples by a counting sort on the top
/// bits of u2's word, so libm's branches on the angle's range predict.
/// The bits are the loop's by construction.  A u1 of 0 (probability
/// 2^-53 a sample) or a cached Gaussian shifts the words, so then the
/// loop itself runs, from the saved generator state.
void add_exact_noise(Pcg32& rng, double sigma, dsp::Signal& signal)
{
    const std::size_t n = signal.size();
    const Pcg32 saved = rng;
    dsp::Workspace& workspace = dsp::Workspace::current();
    auto words = workspace.words();
    auto radii = workspace.reals();
    auto order = workspace.words();
    words->resize(2 * n);
    radii->resize(n);
    order->resize(n);
    const std::uint64_t* w = words->data();

    bool shifted = rng.has_cached_gaussian();
    std::array<std::size_t, (1u << bucket_bits) + 1> start{};
    if (!shifted) {
        rng.next_u64_into(*words);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t u1_bits = w[2 * i] >> 11u;
            shifted |= u1_bits == 0;
            (*radii)[i] = std::sqrt(-2.0 * std::log(static_cast<double>(u1_bits) * 0x1.0p-53));
            ++start[(w[2 * i + 1] >> (64u - bucket_bits)) + 1];
        }
    }
    if (shifted) {
        rng = saved;
        for (auto& s : signal)
            s += dsp::Sample{sigma * rng.next_gaussian(), sigma * rng.next_gaussian()};
        return;
    }
    for (std::size_t b = 1; b < start.size(); ++b)
        start[b] += start[b - 1];
    for (std::size_t i = 0; i < n; ++i)
        (*order)[start[w[2 * i + 1] >> (64u - bucket_bits)]++] = i;
    for (const std::uint64_t i : *order) {
        const double radius = (*radii)[i];
        const double angle =
            2.0 * std::numbers::pi * (static_cast<double>(w[2 * i + 1] >> 11u) * 0x1.0p-53);
        signal[i] += dsp::Sample{sigma * (radius * std::cos(angle)),
                                 sigma * (radius * std::sin(angle))};
    }
}

} // namespace

void Awgn::add_in_place(dsp::Signal& signal)
{
    if (noise_power_ == 0.0)
        return;
    if (profile_ == dsp::Math_profile::exact) {
        add_exact_noise(rng_, sigma_per_dim_, signal);
        return;
    }
    // Fast profile: one counter-based key per call (each add_in_place is
    // a fresh, independent noise span, mirroring how the exact stream
    // advances), then a fused counter fill-and-add over the interleaved
    // re/im array through the lane kernels — order-independent and
    // streaming at throughput (see Counter_normal::add_scaled_simd).
    // Braced-init sequences the two draws left to right; named locals
    // make the (seed, stream) order unmistakable to readers regardless.
    const std::uint64_t key_seed = rng_.next_u64();
    const std::uint64_t key_stream = rng_.next_u64();
    const Counter_normal normals{key_seed, key_stream};
    normals.add_scaled_simd(0, sigma_per_dim_, reinterpret_cast<double*>(signal.data()),
                            2 * signal.size());
}

double noise_power_for_snr_db(double snr_db, double signal_power)
{
    return signal_power / from_db(snr_db);
}

} // namespace anc::chan
