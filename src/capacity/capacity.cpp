#include "capacity/capacity.h"

#include <cmath>
#include <stdexcept>

#include "util/db.h"

namespace anc::cap {

namespace {

double log2_1p(double x)
{
    return std::log2(1.0 + x);
}

} // namespace

double traditional_upper_bound(double snr, double alpha)
{
    if (snr < 0.0)
        throw std::invalid_argument{"traditional_upper_bound: snr must be non-negative"};
    return alpha * (log2_1p(2.0 * snr) + log2_1p(snr));
}

double anc_lower_bound(double snr, double alpha)
{
    if (snr < 0.0)
        throw std::invalid_argument{"anc_lower_bound: snr must be non-negative"};
    return 4.0 * alpha * log2_1p(snr * snr / (3.0 * snr + 1.0));
}

double capacity_gain(double snr, double alpha)
{
    const double traditional = traditional_upper_bound(snr, alpha);
    if (traditional <= 0.0)
        return 0.0;
    return anc_lower_bound(snr, alpha) / traditional;
}

std::vector<Capacity_point> sweep(double lo_db, double hi_db, double step_db, double alpha)
{
    if (step_db <= 0.0)
        throw std::invalid_argument{"sweep: step must be positive"};
    std::vector<Capacity_point> points;
    for (double snr_db = lo_db; snr_db <= hi_db + 1e-9; snr_db += step_db) {
        Capacity_point point;
        point.snr_db = snr_db;
        const double snr = from_db(snr_db);
        point.traditional = traditional_upper_bound(snr, alpha);
        point.anc = anc_lower_bound(snr, alpha);
        point.gain = point.traditional > 0.0 ? point.anc / point.traditional : 0.0;
        points.push_back(point);
    }
    return points;
}

double crossover_snr_db(double alpha)
{
    double lo = -10.0;
    double hi = 60.0;
    auto advantage = [alpha](double snr_db) {
        const double snr = from_db(snr_db);
        return anc_lower_bound(snr, alpha) - traditional_upper_bound(snr, alpha);
    };
    if (advantage(lo) > 0.0)
        return lo;
    for (int i = 0; i < 200; ++i) {
        const double mid = (lo + hi) / 2.0;
        if (advantage(mid) > 0.0)
            hi = mid;
        else
            lo = mid;
    }
    return (lo + hi) / 2.0;
}

double relay_amplification(double power, double h_ar, double h_br)
{
    return std::sqrt(power / (power * h_ar * h_ar + power * h_br * h_br + 1.0));
}

double anc_receiver_snr(double power, double h_ar, double h_br, double h_ra)
{
    const double amp = relay_amplification(power, h_ar, h_br);
    const double signal = amp * amp * power * h_ra * h_ra * h_br * h_br;
    const double noise = amp * amp * h_ra * h_ra + 1.0;
    (void)h_ar; // enters through the amplification factor
    return signal / noise;
}

double anc_sum_rate(double power, double h_ar, double h_br, double h_ra, double h_rb)
{
    const double snr_alice = anc_receiver_snr(power, h_ar, h_br, h_ra);
    const double snr_bob = anc_receiver_snr(power, h_br, h_ar, h_rb);
    return 0.5 * (log2_1p(snr_alice) + log2_1p(snr_bob));
}

} // namespace anc::cap
