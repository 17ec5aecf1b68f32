#include "channel/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"
#include "util/simd.h"

namespace anc::chan {

namespace {

// 1/sqrt(2): each quadrature of h_k ~ CN(0,1) has variance 1/2.
constexpr double inv_sqrt2 = 0.70710678118654752440;

} // namespace

double agc_detection_threshold_db(double base_threshold_db, double link_gain)
{
    if (!(link_gain > 0.0))
        throw std::invalid_argument{
            "agc_detection_threshold_db: link gain must be positive"};
    return base_threshold_db + 20.0 * std::log10(link_gain);
}

/// Shared rayleigh_block kernel: accumulate the faded, rotated signal
/// onto `out` (which must already span signal.size() samples).
void Link_channel::accumulate_faded(dsp::Signal_view signal, std::uint64_t fading_epoch,
                                    dsp::Sample* out) const
{
    const std::size_t block_len =
        params_.coherence_block == 0 ? signal.size() : params_.coherence_block;
    const double* in = reinterpret_cast<const double*>(signal.data());
    const double* rotors = reinterpret_cast<const double*>(rotor_stream(signal.size()));
    double* acc = reinterpret_cast<double*>(out);
    for (std::size_t begin_n = 0; begin_n < signal.size(); begin_n += block_len) {
        const dsp::Sample fade = block_gain(fading_epoch, begin_n / block_len);
        // The historical out[n] += signal[n] * polar(...) * fade, with the
        // polar read from the stream: the lane kernel forms the same two
        // std::complex products in the same order, so the bits hold
        // (samples are finite throughout the substrate).
        simd::cmul_fade_accumulate(in + 2 * begin_n, rotors + 2 * begin_n, acc + 2 * begin_n,
                                   std::min(block_len, signal.size() - begin_n), fade.real(),
                                   fade.imag());
    }
}

dsp::Sample Link_channel::exact_rotor(std::size_t n) const
{
    return std::polar(params_.gain,
                      params_.phase + params_.phase_drift * static_cast<double>(n));
}

const dsp::Sample* Link_channel::rotor_stream(std::size_t samples) const
{
    rotor_cache_.reserve(samples);
    while (rotor_cache_.size() < samples)
        rotor_cache_.push_back(exact_rotor(rotor_cache_.size()));
    return rotor_cache_.data();
}

void Link_channel::accumulate_fixed(dsp::Signal_view signal, dsp::Sample* out) const
{
    const double* in = reinterpret_cast<const double*>(signal.data());
    double* acc = reinterpret_cast<double*>(out);
    if (params_.phase_drift != 0.0) {
        // Drifting link: an element-wise complex multiply-add against the
        // memoised rotor stream.  The lane kernel's products are the ones
        // std::complex multiplication performs, so the historical
        // out[n] += signal[n] * polar(...) keeps its bits (samples are
        // finite throughout the substrate).
        simd::cmul_accumulate(in, reinterpret_cast<const double*>(rotor_stream(signal.size())),
                              acc, signal.size());
        return;
    }
    // Drift-free: every sample's rotor is the first one.
    const dsp::Sample rotor = exact_rotor(0);
    simd::rotor_accumulate(in, acc, signal.size(), rotor.real(), rotor.imag());
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

dsp::Signal Link_channel::apply(dsp::Signal_view signal, std::uint64_t fading_epoch) const
{
    dsp::Signal out;
    if (params_.gain_model == Gain_model::fixed) {
        // Store the products rather than adding them to zeros, which
        // would turn a -0.0 component into +0.0.
        const dsp::Sample* rotor = rotor_stream(signal.size());
        out.reserve(params_.delay + signal.size());
        out.assign(params_.delay, dsp::Sample{0.0, 0.0});
        for (std::size_t n = 0; n < signal.size(); ++n)
            out.push_back(signal[n] * rotor[n]);
        return out;
    }
    out.assign(params_.delay + signal.size(), dsp::Sample{0.0, 0.0});
    accumulate_faded(signal, fading_epoch, out.data() + params_.delay);
    return out;
}

void Link_channel::apply_onto(dsp::Signal_view signal, std::size_t at,
                              dsp::Signal& acc, std::uint64_t fading_epoch) const
{
    const std::size_t begin = at + params_.delay;
    // Grow by value-initializing resize: for std::complex<double> that
    // zero-initializes (bit-identical to filling Sample{0.0, 0.0}), but
    // libstdc++ lowers it to a tight loop while the fill-constructing
    // resize(n, value) overload runs an order of magnitude slower on the
    // ~2 KiB-per-symbol buffers this accumulates into — it dominated the
    // channel stage before the change.
    if (acc.size() < begin + signal.size())
        acc.resize(begin + signal.size());
    dsp::Sample* out = acc.data() + begin;
    if (params_.gain_model == Gain_model::fixed)
        accumulate_fixed(signal, out);
    else
        accumulate_faded(signal, fading_epoch, out);
}

} // namespace anc::chan
