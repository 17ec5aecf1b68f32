#include "channel/awgn.h"

#include <cmath>
#include <stdexcept>

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

dsp::Sample Awgn::sample()
{
    return {sigma_per_dim_ * rng_.next_gaussian(),
            sigma_per_dim_ * rng_.next_gaussian()};
}

dsp::Signal Awgn::apply(dsp::Signal_view signal)
{
    dsp::Signal out{signal.begin(), signal.end()};
    add_in_place(out);
    return out;
}

void Awgn::add_in_place(dsp::Signal& signal)
{
    if (noise_power_ == 0.0)
        return;
    if (profile_ == dsp::Math_profile::exact) {
        for (auto& s : signal)
            s += sample();
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
