// Collision lab: a guided walk through the decoding machinery of §6 on a
// single synthetic collision — Lemma 6.1's two-solution geometry, the
// mu/sigma amplitude equations, phase-difference matching, and the final
// bit decisions.  Useful for understanding the algorithm and as a
// debugging aid when porting to new modulations.

#include <cstdio>

#include "channel/awgn.h"
#include "channel/link.h"
#include "core/amplitude_estimator.h"
#include "core/interference_decoder.h"
#include "core/phase_solver.h"
#include "dsp/msk.h"
#include "util/bits.h"
#include "util/phase.h"
#include "util/rng.h"

int main()
{
    using namespace anc;

    std::printf("=== 1. Two MSK signals collide ===\n");
    Pcg32 rng{2007};
    const std::size_t n_bits = 1600;
    const Bits known_bits = random_bits(n_bits, rng);
    const Bits unknown_bits = random_bits(n_bits, rng);
    const double amp_known = 1.0;
    const double amp_unknown = 0.8;

    const dsp::Msk_modulator mod_known{amp_known, 0.3};
    const dsp::Msk_modulator mod_unknown{amp_unknown, 1.7};
    chan::Link_params drift;
    drift.phase_drift = 0.004; // relative carrier-frequency offset
    dsp::Signal mix;
    mod_known.modulate_into(known_bits, mix);
    dsp::Signal unknown;
    mod_unknown.modulate_into(unknown_bits, unknown);
    chan::Link_channel{drift}.apply_onto(unknown, 0, mix);
    chan::Awgn noise{chan::noise_power_for_snr_db(25.0), rng.fork(1)};
    noise.add_in_place(mix);
    std::printf("amplitudes: known A=%.2f, unknown B=%.2f; %zu samples at 25 dB SNR\n\n",
                amp_known, amp_unknown, mix.size());

    std::printf("=== 2. Lemma 6.1: each sample admits exactly two phase pairs ===\n");
    const dsp::Sample y = mix[100];
    const Phase_solutions solutions = solve_phases(y, amp_known, amp_unknown);
    std::printf("y[100] = %.3f%+.3fi  (|y| = %.3f, D = cos(theta-phi) = %.3f)\n", y.real(),
                y.imag(), std::abs(y), solutions.d);
    for (int i = 0; i < 2; ++i) {
        const auto& p = solutions.pair[i];
        const dsp::Sample rebuilt =
            std::polar(amp_known, p.theta) + std::polar(amp_unknown, p.phi);
        std::printf("  solution %d: theta=%+.3f phi=%+.3f  -> rebuilds y as %.3f%+.3fi\n",
                    i + 1, p.theta, p.phi, rebuilt.real(), rebuilt.imag());
    }

    std::printf("\n=== 3. Eq. 5-6: amplitudes from energy statistics alone ===\n");
    const auto mu_sigma = estimate_amplitudes(mix, chan::noise_power_for_snr_db(25.0));
    if (mu_sigma) {
        std::printf("mu    = %.4f (true A^2+B^2 = %.4f)\n", mu_sigma->mu,
                    amp_known * amp_known + amp_unknown * amp_unknown);
        std::printf("sigma = %.4f (true A^2+B^2+4AB/pi = %.4f)\n", mu_sigma->sigma,
                    amp_known * amp_known + amp_unknown * amp_unknown
                        + 4.0 * amp_known * amp_unknown / 3.14159265);
        std::printf("estimated A=%.3f B=%.3f (true 1.00 / 0.80)\n", mu_sigma->a,
                    mu_sigma->b);
    }
    const auto by_variance = estimate_amplitudes_by_variance(
        mix, chan::noise_power_for_snr_db(25.0));
    if (by_variance) {
        std::printf("variance estimator:  A=%.3f B=%.3f (distribution-free alternative)\n",
                    by_variance->a, by_variance->b);
    }

    std::printf("\n=== 4. Matching: pick the pair whose delta-theta fits the known bits ===\n");
    std::vector<double> known_diffs;
    dsp::phase_differences_for_bits_into(known_bits, known_diffs);
    const Interference_decoder decoder;
    Bits decoded;
    std::vector<double> phi_differences;
    std::vector<double> match_errors;
    decoder.decode_into(mix, known_diffs, amp_known, amp_unknown, decoded, phi_differences,
                        match_errors);
    double mean_error = 0.0;
    for (const double e : match_errors)
        mean_error += e;
    mean_error /= static_cast<double>(match_errors.size());
    std::printf("mean |delta-theta - expected| over %zu transitions: %.3f rad\n",
                match_errors.size(), mean_error);

    std::printf("\n=== 5. Read the unknown bits off the matching delta-phi ===\n");
    std::size_t errors = 0;
    for (std::size_t i = 0; i < n_bits; ++i)
        errors += (decoded[i] != unknown_bits[i]);
    std::printf("decoded %zu unknown bits with %zu errors (BER %.4f)\n", n_bits, errors,
                static_cast<double>(errors) / static_cast<double>(n_bits));
    std::printf("first 32 decoded: %s\n",
                to_string(std::span<const std::uint8_t>{decoded}.first(32)).c_str());
    std::printf("first 32 truth:   %s\n",
                to_string(std::span<const std::uint8_t>{unknown_bits}.first(32)).c_str());
    return 0;
}
