#include "dsp/energy_scan.h"

#include <stdexcept>

namespace anc::dsp {

namespace {

/// std::norm's arithmetic: re*re + im*im.
inline double energy_at(const double* data, std::size_t i)
{
    return data[2 * i] * data[2 * i] + data[2 * i + 1] * data[2 * i + 1];
}

/// The detectors' serial chain: the first window summed sample by
/// sample, then `sum += e_new - e_old` per step (and likewise for the
/// squares).  visit(n, sum, sum_sq) sees window n's sums in order; the
/// chain stops at the first window it returns true for, and returns
/// that window (`windows` if none).
template <bool With_squares, class Visit>
std::size_t window_chain(const double* data, std::size_t window, std::size_t windows,
                         Visit visit)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
        const double e = energy_at(data, i);
        sum += e;
        if constexpr (With_squares)
            sum_sq += e * e;
    }
    if (visit(0, sum, sum_sq))
        return 0;
    for (std::size_t start = 1; start < windows; ++start) {
        // The leaving sample's energy is recomputed rather than stored:
        // the same products, so the same value, and no buffer.
        const double e_new = energy_at(data, start - 1 + window);
        const double e_old = energy_at(data, start - 1);
        sum += e_new - e_old;
        if constexpr (With_squares)
            sum_sq += e_new * e_new - e_old * e_old;
        if (visit(start, sum, sum_sq))
            return start;
    }
    return windows;
}

} // namespace

void sample_energies_into(Signal_view signal, std::vector<double>& out)
{
    const std::size_t n = signal.size();
    out.resize(n);
    const double* data = reinterpret_cast<const double*>(signal.data());
    double* e = out.data();
    for (std::size_t i = 0; i < n; ++i)
        e[i] = energy_at(data, i);
}

double mean_energy(Signal_view signal)
{
    if (signal.empty())
        return 0.0;
    const double* data = reinterpret_cast<const double*>(signal.data());
    const std::size_t n = signal.size();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += energy_at(data, i);
    return total / static_cast<double>(n);
}

void window_energy_sums_into(Signal_view signal, std::size_t window,
                             std::vector<double>& sums, std::vector<double>* sum_sqs)
{
    if (window == 0)
        throw std::invalid_argument{"window_energy_sums_into: window must be positive"};
    sums.clear();
    if (sum_sqs)
        sum_sqs->clear();
    if (signal.size() < window)
        return;

    const double* data = reinterpret_cast<const double*>(signal.data());
    const std::size_t windows = signal.size() - window + 1;
    sums.resize(windows);
    double* out = sums.data();
    if (sum_sqs) {
        sum_sqs->resize(windows);
        double* out_sq = sum_sqs->data();
        window_chain<true>(data, window, windows, [&](std::size_t n, double sum, double sum_sq) {
            out[n] = sum;
            out_sq[n] = sum_sq;
            return false;
        });
    } else {
        window_chain<false>(data, window, windows, [&](std::size_t n, double sum, double) {
            out[n] = sum;
            return false;
        });
    }
}

std::size_t first_window_above(Signal_view signal, std::size_t window, double scale,
                               double threshold)
{
    if (window == 0)
        throw std::invalid_argument{"first_window_above: window must be positive"};
    if (signal.size() < window)
        return 0;
    const double* data = reinterpret_cast<const double*>(signal.data());
    return window_chain<false>(data, window, signal.size() - window + 1,
                               [&](std::size_t, double sum, double) {
                                   return sum * scale > threshold;
                               });
}

} // namespace anc::dsp
