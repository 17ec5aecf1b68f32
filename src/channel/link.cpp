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

/// out[n] += signal[n] * rotor_n for n in [begin, end), where rotor_n
/// advances by `step` per sample (the fast profile's incremental
/// rotation).  A zero drift makes `step` unity; that case is hoisted
/// into a constant-rotor multiply-add with no serial dependence, on the
/// lane kernels (simd::rotor_accumulate, bit-identical to the scalar
/// loop).
void accumulate_rotor(dsp::Signal_view signal, std::size_t begin, std::size_t end,
                      dsp::Sample rotor, dsp::Sample step, bool constant_rotor,
                      dsp::Sample* out)
{
    const double* in = reinterpret_cast<const double*>(signal.data());
    double* acc = reinterpret_cast<double*>(out);
    if (constant_rotor) {
        simd::rotor_accumulate(in + 2 * begin, acc + 2 * begin, end - begin,
                               rotor.real(), rotor.imag());
        return;
    }
    double rr = rotor.real();
    double ri = rotor.imag();
    const double sr = step.real();
    const double si = step.imag();
    for (std::size_t n = begin; n < end; ++n) {
        const double re = in[2 * n];
        const double im = in[2 * n + 1];
        acc[2 * n] += re * rr - im * ri;
        acc[2 * n + 1] += re * ri + im * rr;
        const double next_rr = rr * sr - ri * si;
        ri = rr * si + ri * sr;
        rr = next_rr;
    }
}

} // namespace

double agc_detection_threshold_db(double base_threshold_db, double link_gain)
{
    if (link_gain <= 0.0)
        throw std::invalid_argument{
            "agc_detection_threshold_db: link gain must be positive"};
    return base_threshold_db + 20.0 * std::log10(link_gain);
}

/// Shared rayleigh_block kernel: accumulate the faded, rotated signal
/// onto `out` (which must already span signal.size() samples).
void Link_channel::accumulate_faded(dsp::Signal_view signal, std::uint64_t fading_epoch,
                                    dsp::Sample* out, dsp::Math_profile profile) const
{
    const std::size_t block_len =
        params_.coherence_block == 0 ? signal.size() : params_.coherence_block;
    const dsp::Sample* rotor = profile == dsp::Math_profile::exact
                                   ? rotor_stream(signal.size(), profile)
                                   : nullptr;
    for (std::size_t begin_n = 0; begin_n < signal.size(); begin_n += block_len) {
        const dsp::Sample fade = block_gain(fading_epoch, begin_n / block_len);
        const std::size_t end_n = std::min(begin_n + block_len, signal.size());
        if (profile != dsp::Math_profile::exact) {
            // One sincos at the block boundary, then the rotor recurrence
            // (fade folded into the rotor, so the inner loop is identical
            // to the historical fixed-gain fast loop).
            const dsp::Sample rotor_0 =
                dsp::profile_polar(profile, params_.gain,
                              params_.phase
                                  + params_.phase_drift * static_cast<double>(begin_n))
                * fade;
            const dsp::Sample step =
                dsp::profile_polar(profile, 1.0, params_.phase_drift);
            accumulate_rotor(signal, begin_n, end_n, rotor_0, step,
                             params_.phase_drift == 0.0, out);
            continue;
        }
        // The historical signal[n] * polar(...) * fade, with the polar
        // read from the stream: same operands, same order, same bits.
        for (std::size_t n = begin_n; n < end_n; ++n)
            out[n] += signal[n] * rotor[n] * fade;
    }
}

dsp::Sample Link_channel::exact_rotor(std::size_t n) const
{
    return std::polar(params_.gain,
                      params_.phase + params_.phase_drift * static_cast<double>(n));
}

const dsp::Sample* Link_channel::rotor_stream(std::size_t samples,
                                              dsp::Math_profile profile) const
{
    if (rotor_profile_ != profile) {
        rotor_cache_.clear();
        rotor_profile_ = profile;
    }
    if (rotor_cache_.size() >= samples)
        return rotor_cache_.data();
    rotor_cache_.reserve(samples);
    if (profile == dsp::Math_profile::exact) {
        while (rotor_cache_.size() < samples)
            rotor_cache_.push_back(exact_rotor(rotor_cache_.size()));
        return rotor_cache_.data();
    }
    if (rotor_cache_.empty())
        rotor_cache_.push_back(dsp::profile_polar(profile, params_.gain, params_.phase));
    const dsp::Sample step = dsp::profile_polar(profile, 1.0, params_.phase_drift);
    const double sr = step.real();
    const double si = step.imag();
    double rr = rotor_cache_.back().real();
    double ri = rotor_cache_.back().imag();
    while (rotor_cache_.size() < samples) {
        // The recurrence of accumulate_rotor, verbatim, so cached
        // streams stay bit-identical to the historical serial loop.
        const double next_rr = rr * sr - ri * si;
        ri = rr * si + ri * sr;
        rr = next_rr;
        rotor_cache_.push_back(dsp::Sample{rr, ri});
    }
    return rotor_cache_.data();
}

void Link_channel::accumulate_fixed(dsp::Signal_view signal, dsp::Sample* out,
                                    dsp::Math_profile profile) const
{
    const double* in = reinterpret_cast<const double*>(signal.data());
    double* acc = reinterpret_cast<double*>(out);
    if (params_.phase_drift != 0.0) {
        // Drifting link: an element-wise complex multiply-add against the
        // memoised rotor stream.  The lane kernel's products are the ones
        // std::complex multiplication performs, so the exact profile's
        // historical out[n] += signal[n] * polar(...) keeps its bits
        // (samples are finite throughout the substrate).
        // (Fast rayleigh links keep the recurrence: the fade is folded
        // into rotor_0 there, and ((base·fade)·step^n) rounds differently
        // from fade·(base·step^n), so a shared cache would change bits.)
        simd::cmul_accumulate(
            in, reinterpret_cast<const double*>(rotor_stream(signal.size(), profile)), acc,
            signal.size());
        return;
    }
    // Drift-free: every sample's rotor is the first one.
    const dsp::Sample rotor = profile == dsp::Math_profile::exact
                                  ? exact_rotor(0)
                                  : dsp::profile_polar(profile, params_.gain, params_.phase);
    simd::rotor_accumulate(in, acc, signal.size(), rotor.real(), rotor.imag());
}

Link_channel::Link_channel(Link_params params)
    : params_{params}
{
    if (params.gain < 0.0)
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

dsp::Signal Link_channel::apply(dsp::Signal_view signal, std::uint64_t fading_epoch,
                                dsp::Math_profile profile) const
{
    dsp::Signal out;
    if (params_.gain_model == Gain_model::fixed) {
        if (profile != dsp::Math_profile::exact) {
            out.assign(params_.delay + signal.size(), dsp::Sample{0.0, 0.0});
            accumulate_fixed(signal, out.data() + params_.delay, profile);
            return out;
        }
        // Exact stores the products rather than adding them to zeros,
        // which would turn a -0.0 component into +0.0.
        const dsp::Sample* rotor = rotor_stream(signal.size(), profile);
        out.reserve(params_.delay + signal.size());
        out.assign(params_.delay, dsp::Sample{0.0, 0.0});
        for (std::size_t n = 0; n < signal.size(); ++n)
            out.push_back(signal[n] * rotor[n]);
        return out;
    }
    out.assign(params_.delay + signal.size(), dsp::Sample{0.0, 0.0});
    accumulate_faded(signal, fading_epoch, out.data() + params_.delay, profile);
    return out;
}

void Link_channel::apply_onto(dsp::Signal_view signal, std::size_t at,
                              dsp::Signal& acc, std::uint64_t fading_epoch,
                              dsp::Math_profile profile) const
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
        accumulate_fixed(signal, out, profile);
    else
        accumulate_faded(signal, fading_epoch, out, profile);
}

} // namespace anc::chan
