#include "capacity/capacity.h"

#include <cmath>
#include <stdexcept>

#include "util/db.h"

namespace anc::cap {

namespace {

constexpr double alpha = 0.125; // Theorem 8.1's normalization (capacity.h)

double log2_1p(double x)
{
    return std::log2(1.0 + x);
}

} // namespace

double traditional_upper_bound(double snr)
{
    if (snr < 0.0)
        throw std::invalid_argument{"traditional_upper_bound: snr must be non-negative"};
    return alpha * (log2_1p(2.0 * snr) + log2_1p(snr));
}

double anc_lower_bound(double snr)
{
    if (snr < 0.0)
        throw std::invalid_argument{"anc_lower_bound: snr must be non-negative"};
    return 4.0 * alpha * log2_1p(snr * snr / (3.0 * snr + 1.0));
}

double capacity_gain(double snr)
{
    const double traditional = traditional_upper_bound(snr);
    if (traditional <= 0.0)
        return 0.0;
    return anc_lower_bound(snr) / traditional;
}

std::vector<Capacity_point> sweep(double lo_db, double hi_db, double step_db)
{
    if (step_db <= 0.0)
        throw std::invalid_argument{"sweep: step must be positive"};
    std::vector<Capacity_point> points;
    for (double snr_db = lo_db; snr_db <= hi_db + 1e-9; snr_db += step_db) {
        Capacity_point point;
        point.snr_db = snr_db;
        const double snr = from_db(snr_db);
        point.traditional = traditional_upper_bound(snr);
        point.anc = anc_lower_bound(snr);
        point.gain = point.traditional > 0.0 ? point.anc / point.traditional : 0.0;
        points.push_back(point);
    }
    return points;
}

double crossover_snr_db()
{
    double lo = -10.0;
    double hi = 60.0;
    auto advantage = [](double snr_db) {
        const double snr = from_db(snr_db);
        return anc_lower_bound(snr) - traditional_upper_bound(snr);
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

} // namespace anc::cap
