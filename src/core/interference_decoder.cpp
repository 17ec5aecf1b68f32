#include "core/interference_decoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/phase_solver.h"
#include "dsp/workspace.h"
#include "util/obs.h"
#include "util/phase.h"
#include "util/simd.h"

namespace anc {

namespace {

/// The fast profile's SoA core: the Eq. 7 candidate generation into
/// flat per-candidate phase arrays (the 3-atan2 arg(y) factorization —
/// see the kernel derivation notes in util/simd.cpp), the Eq. 8
/// branchless selection over them, and differential demodulation of the
/// unknown tail, all through anc::simd's runtime-dispatched lane
/// kernels.  The lanes are bit-compatible with the scalar kernels, so
/// the output is byte-identical on every backend.
///
/// Candidate arrays cover just the known-signal span (the selection
/// never reads past it), and scratch comes from the per-thread
/// Workspace (the executor binds one per worker): zero allocations in
/// steady state.
void estimate_batched(dsp::Signal_view samples,
                      std::span<const double> known_diffs,
                      double a,
                      double b,
                      std::vector<double>& phi_differences,
                      std::vector<double>& match_errors)
{
    const std::size_t count = samples.size();
    const std::size_t transitions = count - 1;
    const std::size_t known =
        known_diffs.size() < transitions ? known_diffs.size() : transitions;
    const double* in = reinterpret_cast<const double*>(samples.data());

    phi_differences.resize(transitions);
    match_errors.resize(known);

    if (known > 0) {
        dsp::Workspace& workspace = dsp::Workspace::current();
        auto theta_plus = workspace.reals();
        auto theta_minus = workspace.reals();
        auto phi_minus = workspace.reals();
        auto phi_plus = workspace.reals();
        theta_plus->resize(known + 1);
        theta_minus->resize(known + 1);
        phi_minus->resize(known + 1);
        phi_plus->resize(known + 1);
        anc::simd::anc_candidates_batch(in, known + 1, a, b, theta_plus->data(),
                                        theta_minus->data(), phi_minus->data(),
                                        phi_plus->data());
        anc::simd::anc_select_batch(theta_plus->data(), theta_minus->data(),
                                    phi_minus->data(), phi_plus->data(),
                                    known_diffs.data(), known, phi_differences.data(),
                                    match_errors.data());
    }
    if (known < transitions)
        anc::simd::diff_arg_batch(in + 2 * known, transitions - known,
                                  phi_differences.data() + known);
}

/// The Eq. 7-8 core: per-transition estimated delta-phi of the unknown
/// signal (candidate selection against the known steps), plus the Eq. 8
/// match errors over the known signal's extent, into `phi_differences`
/// and `match_errors` (cleared first).
void phi_differences_into(dsp::Math_profile profile,
                          dsp::Signal_view samples,
                          std::span<const double> known_diffs,
                          double a,
                          double b,
                          std::vector<double>& phi_differences,
                          std::vector<double>& match_errors)
{
    if (!(a > 0.0) || !(b > 0.0))
        throw std::invalid_argument{"Interference_decoder: amplitudes must be positive"};

    phi_differences.clear();
    match_errors.clear();
    if (samples.size() < 2)
        return;
    const std::size_t transitions = samples.size() - 1;
    // Candidate-selection tallies, derived from the span sizes so the
    // cost is O(1) per decode — never a per-sample counter (this loop
    // runs at tens of megasamples per second).
    {
        const std::size_t selected =
            known_diffs.size() < transitions ? known_diffs.size() : transitions;
        obs::count(obs::Counter::decode_calls);
        obs::count(obs::Counter::decode_selected_samples, selected);
        obs::count(obs::Counter::decode_tail_samples, transitions - selected);
    }
    phi_differences.reserve(transitions);
    match_errors.reserve(known_diffs.size() < transitions ? known_diffs.size()
                                                          : transitions);

    if (profile != dsp::Math_profile::exact) {
        estimate_batched(samples, known_diffs, a, b, phi_differences, match_errors);
        return;
    }

    // Solve each sample once; reuse across the two transitions touching
    // it.  All phases here are atan2 outputs in [-pi, pi], so their
    // differences stay within the exact domain of the branch-only
    // wrap_phase_bounded fold — no fmod in the per-sample loop.
    Phase_solutions current = solve_phases(samples[0], a, b);
    for (std::size_t n = 0; n < transitions; ++n) {
        const Phase_solutions next = solve_phases(samples[n + 1], a, b);

        if (n < known_diffs.size()) {
            // Four candidate (delta theta, delta phi) pairs (Eq. 7); pick
            // the one matching the known signal's step (Eq. 8).
            double best_error = 0.0;
            double best_phi_diff = 0.0;
            bool first = true;
            for (const Phase_pair& p_next : next.pair) {
                for (const Phase_pair& p_cur : current.pair) {
                    const double theta_diff = wrap_phase_bounded(p_next.theta - p_cur.theta);
                    const double error = phase_distance_bounded(theta_diff, known_diffs[n]);
                    if (first || error < best_error) {
                        best_error = error;
                        best_phi_diff = wrap_phase_bounded(p_next.phi - p_cur.phi);
                        first = false;
                    }
                }
            }
            phi_differences.push_back(best_phi_diff);
            match_errors.push_back(best_error);
        } else {
            // Known signal over: standard differential demodulation (§5.3).
            phi_differences.push_back(std::arg(samples[n + 1] * std::conj(samples[n])));
        }
        current = next;
    }
}

} // namespace

void Interference_decoder::decode_into(dsp::Signal_view samples,
                                       std::span<const double> known_diffs,
                                       double a,
                                       double b,
                                       Bits& bits,
                                       std::vector<double>& phi_differences,
                                       std::vector<double>& match_errors) const
{
    const obs::Stage_timer timer{obs::Stage::interference_decode};
    phi_differences_into(profile_, samples, known_diffs, a, b, phi_differences,
                         match_errors);
    bits.clear();
    bits.reserve(phi_differences.size());
    for (const double diff : phi_differences)
        bits.push_back(diff >= 0.0 ? 1 : 0); // MSK rule (§6.4)
}

} // namespace anc
