// Windowed energy statistics over a sample stream.
//
// The receiver front-end of §7.1 makes two decisions from energy alone:
//   1. packet present?   — mean energy well above the noise floor;
//   2. interference?     — the energy of a single MSK signal is nearly
//      constant (constant envelope), so a large *variance* of the energy
//      betrays a collision: |y|^2 swings between (A+B)^2 and (A-B)^2.
// This module provides the moving-window sums those detectors finalize.

#pragma once

#include <cstddef>
#include <vector>

#include "dsp/sample.h"

namespace anc::dsp {

/// Instantaneous energy |y[n]|^2 for every sample, into a caller-owned
/// buffer (cleared first) — the amplitude estimator feeds this from a
/// dsp::Workspace lease so its per-receive scans do not allocate in
/// steady state.
void sample_energies_into(Signal_view signal, std::vector<double>& out);

/// Mean of |y|^2 over the whole signal (0 for an empty signal).
double mean_energy(Signal_view signal);

/// The sliding-window sums the §7.1 detectors finalize: sums[n] is the
/// sum of |y|^2 over samples [n, n + window) — and sum_sqs[n], when
/// `sum_sqs` is given, that of |y|^4 — for the len - window + 1 windows
/// (none when the signal is shorter than the window).  Both are serial
/// IEEE addition chains in the historical order (the first window
/// summed sample by sample, then `sum += e_new - e_old` per step), and
/// |y|^2 is formed inside them: no per-sample energies pass.  Throws
/// std::invalid_argument for a zero window.
void window_energy_sums_into(Signal_view signal, std::size_t window,
                             std::vector<double>& sums,
                             std::vector<double>* sum_sqs = nullptr);

/// The first window n whose sum, as window_energy_sums_into computes it,
/// satisfies sums[n] · scale > threshold, or the window count if there
/// is none (0 for a signal shorter than the window).  Runs the serial
/// chain only that far.  Throws std::invalid_argument for a zero window.
std::size_t first_window_above(Signal_view signal, std::size_t window, double scale,
                               double threshold);

} // namespace anc::dsp
