#include "channel/link.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"
#include "util/simd.h"

namespace anc::chan {

namespace {

// 1/sqrt(2): each quadrature of h_k ~ CN(0,1) has variance 1/2.
constexpr double inv_sqrt2 = 0.70710678118654752440;

} // namespace

const dsp::Sample* Link_channel::rotor_stream(std::size_t samples) const
{
    // The historical per-sample rotation, verbatim.
    rotor_cache_.reserve(samples);
    for (std::size_t n = rotor_cache_.size(); n < samples; ++n)
        rotor_cache_.push_back(
            std::polar(params_.gain, params_.phase + params_.phase_drift * static_cast<double>(n)));
    return rotor_cache_.data();
}

Link_channel::Link_channel(Link_params params)
    : params_{params}
{
    if (!(params.gain >= 0.0))
        throw std::invalid_argument{"Link_channel: gain must be non-negative"};
}

dsp::Sample Link_channel::block_gain(std::uint64_t fading_epoch, std::size_t block) const
{
    // Counter-based: a fresh Pcg32 per (epoch, block), seeded through
    // two mix_seed layers, so the draw depends only on
    // (fading_seed, epoch, block) — never on how many samples or
    // signals this channel has already processed.
    Pcg32 draws{mix_seed(mix_seed(params_.fading_seed, fading_epoch), block),
                0xfadeb10cULL};
    const double re = draws.next_gaussian() * inv_sqrt2;
    const double im = draws.next_gaussian() * inv_sqrt2;
    return {re, im};
}

void Link_channel::apply_onto(dsp::Signal_view signal, std::size_t at,
                              dsp::Signal& acc, std::uint64_t fading_epoch) const
{
    // Grow by value-initializing resize: for std::complex<double> that
    // zero-initializes (bit-identical to filling Sample{0.0, 0.0}), but
    // libstdc++ lowers it to a tight loop while the fill-constructing
    // resize(n, value) overload runs an order of magnitude slower on the
    // ~2 KiB-per-symbol buffers this accumulates into — it dominated the
    // channel stage before the change.
    if (acc.size() < at + signal.size())
        acc.resize(at + signal.size());
    // The historical out[n] += signal[n] * polar(...) (times the block's
    // fade under rayleigh_block), with the polar read from the stream:
    // the lane kernels form the same std::complex products in the same
    // order, so the bits hold (samples are finite throughout the
    // substrate).
    const double* in = reinterpret_cast<const double*>(signal.data());
    const double* rotors = reinterpret_cast<const double*>(rotor_stream(signal.size()));
    double* out = reinterpret_cast<double*>(acc.data() + at);
    if (params_.gain_model == Gain_model::fixed) {
        simd::cmul_accumulate(in, rotors, out, signal.size());
        return;
    }
    const std::size_t block_len =
        params_.coherence_block == 0 ? signal.size() : params_.coherence_block;
    for (std::size_t n = 0; n < signal.size(); n += block_len) {
        const dsp::Sample fade = block_gain(fading_epoch, n / block_len);
        simd::cmul_fade_accumulate(in + 2 * n, rotors + 2 * n, out + 2 * n,
                                   std::min(block_len, signal.size() - n), fade.real(),
                                   fade.imag());
    }
}

} // namespace anc::chan
