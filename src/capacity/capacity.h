// Capacity analysis of the half-duplex 2-way relay channel (§8,
// Theorem 8.1 and Appendix C).
//
// Theorem 8.1:
//   C_traditional <= alpha * (log(1 + 2 SNR) + log(1 + SNR))      (upper)
//   C_anc         >= 4 alpha * log(1 + SNR^2 / (3 SNR + 1))       (lower)
// and the ratio tends to 2 as SNR grows.
//
// alpha is the theorem's normalization constant; alpha = 1/8 reproduces
// the absolute scale of Fig. 7 (b/s/Hz with the relay's half-duplex and
// two-flow time sharing folded in).  Logs are base 2 (capacities in
// bits).

#pragma once

#include <vector>

namespace anc::cap {

inline constexpr double default_alpha = 0.125;

/// Upper bound on the traditional (routing) capacity at linear `snr`.
double traditional_upper_bound(double snr, double alpha = default_alpha);

/// Lower bound on the ANC (amplify-and-forward) capacity at linear `snr`.
double anc_lower_bound(double snr, double alpha = default_alpha);

/// C_anc / C_traditional at linear `snr`.
double capacity_gain(double snr, double alpha = default_alpha);

struct Capacity_point {
    double snr_db = 0.0;
    double traditional = 0.0;
    double anc = 0.0;
    double gain = 0.0;
};

/// Sweep both bounds across an SNR range in dB — the data of Fig. 7.
std::vector<Capacity_point> sweep(double from_db, double to_db, double step_db,
                                  double alpha = default_alpha);

/// The SNR (dB) above which ANC beats the traditional bound (the
/// crossover visible around 0-8 dB in Fig. 7).  Found by bisection over
/// [-10, 60] dB; returns the low edge if ANC already wins everywhere.
double crossover_snr_db(double alpha = default_alpha);

// ---- Appendix C building blocks (amplify-and-forward link budget) ----

/// Relay amplification factor A = sqrt(P / (P h_ar^2 + P h_br^2 + 1)),
/// noise power normalized to 1 (Appendix C).
double relay_amplification(double power, double h_ar, double h_br);

/// Post-cancellation SNR at Alice (Eq. 25): Alice receives the amplified
/// mix through h_ra, cancels her own part, and is left with Bob's signal
/// plus relay noise amplified through her channel plus her own noise.
double anc_receiver_snr(double power, double h_ar, double h_br, double h_ra);

/// Total ANC throughput with explicit channel gains (Eq. 26):
/// 1/2 (log(1 + SNR_alice) + log(1 + SNR_bob)).
double anc_sum_rate(double power, double h_ar, double h_br, double h_ra, double h_rb);

} // namespace anc::cap
