#include "core/interference_decoder.h"

#include <array>
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

/// The exact profile's Eq. 7-8 core, the libm path.  Each sample of the
/// known span [0, known] is solved once and reused across the two
/// transitions touching it: its four Lemma 6.1 products (phase_products,
/// as solve_phases forms them) go into SoA arrays, product j of sample k
/// at j·(known + 1) + k, and their 4·(known + 1) atan2 calls run grouped
/// by the octant key (signbit y, signbit x, |y| > |x|), so libm's
/// branches on the argument's octant predict.  The calls see the same
/// doubles as solve_phases' args, so every phase is solve_phases' bit
/// for bit.  The Eq. 8 selection then reads those phases; past the known
/// signal, standard differential demodulation (§5.3).
void estimate_exact(dsp::Signal_view samples,
                    std::span<const double> known_diffs,
                    double a,
                    double b,
                    std::vector<double>& phi_differences,
                    std::vector<double>& match_errors)
{
    const std::size_t transitions = samples.size() - 1;
    const std::size_t known =
        known_diffs.size() < transitions ? known_diffs.size() : transitions;
    phi_differences.resize(transitions);
    match_errors.resize(known);

    if (known > 0) {
        const std::size_t span = known + 1;
        const std::size_t count = 4 * span;
        dsp::Workspace& workspace = dsp::Workspace::current();
        auto re = workspace.reals();
        auto im = workspace.reals();
        auto phases = workspace.reals();
        auto keys = workspace.bits();
        auto order = workspace.words();
        re->resize(count);
        im->resize(count);
        phases->resize(count);
        keys->resize(count);
        order->resize(count);

        std::array<std::size_t, 9> start{};
        for (std::size_t k = 0; k < span; ++k) {
            const Phase_products products = phase_products(samples[k], a, b);
            for (std::size_t j = 0; j < 4; ++j) {
                const std::size_t i = j * span + k;
                const double x = products.product[j].real();
                const double y = products.product[j].imag();
                (*re)[i] = x;
                (*im)[i] = y;
                const auto key = static_cast<std::uint8_t>(
                    (std::signbit(y) ? 4 : 0) | (std::signbit(x) ? 2 : 0)
                    | (std::abs(y) > std::abs(x) ? 1 : 0));
                (*keys)[i] = key;
                ++start[key + 1];
            }
        }
        for (std::size_t key = 1; key < start.size(); ++key)
            start[key] += start[key - 1];
        for (std::size_t i = 0; i < count; ++i)
            (*order)[start[(*keys)[i]]++] = i;
        for (const std::uint64_t i : *order)
            (*phases)[i] = std::atan2((*im)[i], (*re)[i]);

        // All phases here are atan2 outputs in [-pi, pi], so their
        // differences stay within the exact domain of the branch-only
        // wrap_phase_bounded fold — no fmod in the per-sample loop.
        const double* theta[2] = {phases->data(), phases->data() + 2 * span};
        const double* phi[2] = {phases->data() + span, phases->data() + 3 * span};
        for (std::size_t n = 0; n < known; ++n) {
            // Four candidate (delta theta, delta phi) pairs (Eq. 7); pick
            // the one matching the known signal's step (Eq. 8).
            double best_error = 0.0;
            double best_phi_diff = 0.0;
            bool first = true;
            for (std::size_t p_next = 0; p_next < 2; ++p_next) {
                for (std::size_t p_cur = 0; p_cur < 2; ++p_cur) {
                    const double theta_diff =
                        wrap_phase_bounded(theta[p_next][n + 1] - theta[p_cur][n]);
                    const double error = phase_distance_bounded(theta_diff, known_diffs[n]);
                    if (first || error < best_error) {
                        best_error = error;
                        best_phi_diff = wrap_phase_bounded(phi[p_next][n + 1] - phi[p_cur][n]);
                        first = false;
                    }
                }
            }
            phi_differences[n] = best_phi_diff;
            match_errors[n] = best_error;
        }
    }
    // Known signal over: standard differential demodulation (§5.3).
    for (std::size_t n = known; n < transitions; ++n)
        phi_differences[n] = std::arg(samples[n + 1] * std::conj(samples[n]));
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
    if (profile == dsp::Math_profile::exact)
        estimate_exact(samples, known_diffs, a, b, phi_differences, match_errors);
    else
        estimate_batched(samples, known_diffs, a, b, phi_differences, match_errors);
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
