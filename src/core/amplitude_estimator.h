// Estimating the two interfering amplitudes A and B (§6.2).
//
// Over a window of interfered samples with whitened (random-looking) bits:
//     mu    = E[|y|^2]                    = A^2 + B^2            (Eq. 5)
//     sigma = E[|y|^2 given |y|^2 > mu]   = A^2 + B^2 + 4AB/pi   (Eq. 6)
// Two equations, two unknowns.  Receiver noise adds its power sigma_n^2 to
// both statistics, so both are compensated before solving.
//
// Because Alice's and Bob's packets deliberately overlap only partially
// (§7.2), the receiver usually also has a clean, known-signal-only prefix;
// its energy gives a direct estimate of A that is more stable than the
// mu/sigma split.  Both estimators are provided; the receiver uses the
// prefix hint when available (ablation: bench/ablation_amplitude).

#pragma once

#include <optional>

#include "dsp/sample.h"

namespace anc {

struct Amplitude_estimate {
    double a = 0.0;     // amplitude assigned to the known signal
    double b = 0.0;     // amplitude assigned to the unknown signal
    double mu = 0.0;    // noise-compensated mean energy (= a^2 + b^2)
    double sigma = 0.0; // noise-compensated above-mean energy statistic
};

/// Paper estimator: solve Eqs. 5-6 over the overlap window.  Returns the
/// two amplitudes with `a >= b` (the equations cannot tell which signal is
/// which; the caller must assign roles).  Nothing if the window is shorter
/// than `min_window` samples or the statistics degenerate.  All three
/// estimators return nothing unless both amplitudes are finite and
/// positive, so a non-finite sample never reaches the decoder.
std::optional<Amplitude_estimate> estimate_amplitudes(dsp::Signal_view overlap,
                                                      double noise_power,
                                                      std::size_t min_window = 32);

/// Prefix-refined estimator: the known signal's amplitude was measured
/// from an interference-free region (`known_amplitude`); the unknown's
/// follows from mu = a^2 + b^2 over the overlap window.
std::optional<Amplitude_estimate> estimate_with_known_amplitude(dsp::Signal_view overlap,
                                                                double noise_power,
                                                                double known_amplitude,
                                                                std::size_t min_window = 32);

/// Variance-based estimator: var(|y|^2) = 2 (AB)^2 regardless of the
/// phase-offset distribution.  Eq. 6's 4AB/pi assumes cos(theta - phi)
/// sweeps uniformly, which holds on real radios (carrier-frequency offset
/// makes the relative phase drift) but fails for two drift-free MSK
/// signals, whose phase offsets live on a 4-point lattice.  On that
/// lattice E[cos] deviates from the paper's 2/pi, while E[cos^2] = 1/2
/// exactly — in *both* regimes — so this estimator is distribution-free.
std::optional<Amplitude_estimate> estimate_amplitudes_by_variance(dsp::Signal_view overlap,
                                                                  double noise_power,
                                                                  std::size_t min_window = 32);

/// Amplitude of a single signal from an interference-free region:
/// sqrt(max(mean|y|^2 - sigma_n^2, 0)).
double amplitude_from_clean_region(dsp::Signal_view region, double noise_power);

} // namespace anc
