// Additive white Gaussian noise.
//
// The capacity analysis of §8 and the whole evaluation assume an AWGN
// channel; the receiver noise floor also anchors the detector thresholds
// (§7.1) and the SNR sweeps.  Complex circular Gaussian noise of power
// sigma^2 has variance sigma^2/2 per real dimension.
//
// Noise generation dispatches on a dsp::Math_profile: `exact` adds the
// historical sequential Pcg32 Box–Muller stream (bit-identical to every
// golden; drawn in bulk, see awgn.cpp), while `fast` derives a
// counter-based Counter_normal key from the same rng and fills the
// buffer order-independently with its noise-grade Box–Muller transform
// (util/rng.h) — a different (equally valid) noise realization,
// validated by the statistical corridor tests.
// This is one of the math profile's two seams (dsp/math_profile.h).

#pragma once

#include "dsp/math_profile.h"
#include "dsp/sample.h"
#include "util/rng.h"

namespace anc::chan {

class Awgn {
public:
    /// `noise_power` is E[|z|^2].  A dedicated RNG keeps noise independent
    /// from every other random stream in an experiment.
    Awgn(double noise_power, Pcg32 rng,
         dsp::Math_profile profile = dsp::Math_profile::exact);

    /// Add noise in place over [0, len).  Profile-dispatched: see the
    /// header note.
    void add_in_place(dsp::Signal& signal);

private:
    double noise_power_;
    double sigma_per_dim_;
    Pcg32 rng_;
    dsp::Math_profile profile_;
};

/// Noise power that realizes a given SNR (in dB) for unit signal power P=1.
double noise_power_for_snr_db(double snr_db, double signal_power = 1.0);

} // namespace anc::chan
