// Point-to-point link channel.
//
// The paper approximates the wireless channel between two nodes as an
// attenuation h plus a phase shift gamma (§5.3, citing Tse & Viswanath);
// on top of that the substrate models a whole-symbol propagation/queueing
// delay and an optional slow phase drift (a small carrier-frequency
// offset), which stresses the decoder's channel-invariance exactly the way
// real radios do.
//
// Beyond the paper's fixed-gain links, the channel supports Rayleigh
// block fading (Rahimian et al., "A General Analog Network Coding for
// Wireless Systems with Fading and Noisy Channels"): the link gain is a
// circularly-symmetric complex Gaussian h_k ~ CN(0, 1), constant over a
// coherence block of samples and independent across blocks.  Draws are
// counter-based — block k's gain is a pure function of (fading_seed, k)
// via the engine's mix_seed discipline — so a link's realization depends
// only on its parameters, never on call order, and paired schemes that
// share a seed see identical fades.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/sample.h"

namespace anc::chan {

/// How the link's gain behaves over time.
enum class Gain_model {
    fixed,          ///< constant amplitude `gain` (the paper's model)
    rayleigh_block, ///< gain * h_k with h_k ~ CN(0,1) per coherence block
};

struct Link_params {
    double gain = 1.0;            // amplitude attenuation h (mean amplitude
                                  // scale under rayleigh_block: E[|h_k|^2]=1,
                                  // so the mean *power* gain stays gain^2)
    double phase = 0.0;           // phase shift gamma (radians)
    std::size_t delay = 0;        // whole-symbol delay
    double phase_drift = 0.0;     // radians of extra rotation per sample (CFO)
    Gain_model gain_model = Gain_model::fixed;
    /// rayleigh_block: samples per coherence block; 0 means one block
    /// spanning the whole transmission (quasi-static fading).
    std::size_t coherence_block = 0;
    /// Root of the per-block gain draws: block k at fading epoch e uses
    /// mix_seed(mix_seed(fading_seed, e), k).
    std::uint64_t fading_seed = 0;
    /// Per-link AGC-style packet-detection threshold (dB above the noise
    /// floor) for receivers *snooping* this link — a weak link (gain < 1)
    /// delivers packets below the standard carrier-sense threshold, so a
    /// deliberate snooper listens lower by the link's budget deficit
    /// (§11.5; the X topology's overhear links install this).  Empty
    /// means "use the receiver's standard threshold".  The Medium exposes
    /// it via detection_threshold_db(from, to).
    std::optional<double> detection_threshold_db{};
};

/// The AGC rule behind the per-link threshold: lower a base carrier-sense
/// threshold by the link's power budget deficit, −20·log10(gain) dB (a
/// unit-gain link keeps the base; gain 0.5 listens ≈6 dB lower).  Requires
/// gain > 0.
double agc_detection_threshold_db(double base_threshold_db, double link_gain);

/// Fixed:          y[n] = h * e^{i(gamma + drift*n)} * x[n - delay]
/// Rayleigh block: y[n] = h_{e,k(n)} * h * e^{i(gamma + drift*n)} * x[n - delay]
/// where k(n) = n / coherence_block indexes the fading block and `e` is
/// the *fading epoch* — a caller-supplied counter (the sims advance it
/// once per exchange through Medium::set_fading_epoch) that makes
/// successive packets over the same link see independent fades, while
/// paired schemes replaying the same epoch sequence see identical ones.
class Link_channel {
public:
    explicit Link_channel(Link_params params = {});

    /// Accumulate the channel's output into `acc` starting at sample
    /// `at`: acc[at + delay + n] += y[n], growing acc (zero-filled) as
    /// needed.  This is the medium's mixing step fused with the channel
    /// application — no intermediate per-link signal is materialized.
    /// `acc` must not alias `signal` (the accumulation reads `signal`
    /// while writing, and may reallocate `acc`).  Onto an empty `acc`,
    /// this yields the link's output alone: `delay` zeros, then y.
    ///
    /// The per-sample rotation comes from the link's rotor stream (see
    /// rotor_stream), so each std::polar is evaluated once per link, not
    /// once per transmission.  Both math profiles run this one path.
    void apply_onto(dsp::Signal_view signal, std::size_t at, dsp::Signal& acc,
                    std::uint64_t fading_epoch = 0) const;

    /// The complex fading coefficient h_{epoch,block} (rayleigh_block
    /// only) — a pure function of (params' fading_seed, epoch, block).
    dsp::Sample block_gain(std::uint64_t fading_epoch, std::size_t block) const;

    const Link_params& params() const { return params_; }

    /// Power gain h^2 of the link (under rayleigh_block, the *mean*
    /// power gain: E[|h_k|^2] = 1).
    double power_gain() const { return params_.gain * params_.gain; }

private:
    /// First `samples` values of the link's rotor stream (the rotation
    /// gain·e^{i(gamma + drift·n)}, without any fade), memoised.  The
    /// stream is a pure function of the link params, so it is computed
    /// once per link and extended only when a longer signal arrives.
    /// Growth reserves exactly `samples`, so the cache holds no doubling
    /// slack.  The cache makes concurrent apply_onto calls on one link
    /// racy; media (and their links) are owned per sweep task, never
    /// shared across threads.
    const dsp::Sample* rotor_stream(std::size_t samples) const;

    Link_params params_;
    mutable std::vector<dsp::Sample> rotor_cache_;
};

} // namespace anc::chan
