// Capacity analysis of the half-duplex 2-way relay channel (§8,
// Theorem 8.1).
//
// Theorem 8.1:
//   C_traditional <= alpha * (log(1 + 2 SNR) + log(1 + SNR))      (upper)
//   C_anc         >= 4 alpha * log(1 + SNR^2 / (3 SNR + 1))       (lower)
// and the ratio tends to 2 as SNR grows.
//
// alpha is the theorem's normalization constant, fixed at 1/8: that
// reproduces the absolute scale of Fig. 7 (b/s/Hz with the relay's
// half-duplex and two-flow time sharing folded in).  Logs are base 2
// (capacities in bits).

#pragma once

#include <vector>

namespace anc::cap {

/// Upper bound on the traditional (routing) capacity at linear `snr`.
double traditional_upper_bound(double snr);

/// Lower bound on the ANC (amplify-and-forward) capacity at linear `snr`.
double anc_lower_bound(double snr);

/// C_anc / C_traditional at linear `snr`.
double capacity_gain(double snr);

struct Capacity_point {
    double snr_db = 0.0;
    double traditional = 0.0;
    double anc = 0.0;
    double gain = 0.0;
};

/// Sweep both bounds across an SNR range in dB — the data of Fig. 7.
std::vector<Capacity_point> sweep(double from_db, double to_db, double step_db);

/// The SNR (dB) above which ANC beats the traditional bound (the
/// crossover visible around 0-8 dB in Fig. 7).  Found by bisection over
/// [-10, 60] dB; returns the low edge if ANC already wins everywhere.
double crossover_snr_db();

} // namespace anc::cap
