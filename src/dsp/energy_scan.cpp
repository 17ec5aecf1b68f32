#include "dsp/energy_scan.h"

#include <stdexcept>

namespace anc::dsp {

namespace {

/// std::norm's arithmetic: re*re + im*im.
inline double energy_at(const double* data, std::size_t i)
{
    return data[2 * i] * data[2 * i] + data[2 * i + 1] * data[2 * i + 1];
}

template <bool With_squares>
void window_sums(const double* data, std::size_t window, std::size_t windows,
                 double* sums, double* sum_sqs)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
        const double e = energy_at(data, i);
        sum += e;
        if constexpr (With_squares)
            sum_sq += e * e;
    }
    sums[0] = sum;
    if constexpr (With_squares)
        sum_sqs[0] = sum_sq;
    for (std::size_t start = 1; start < windows; ++start) {
        // The leaving sample's energy is recomputed rather than stored:
        // the same products, so the same value, and no buffer.
        const double e_new = energy_at(data, start - 1 + window);
        const double e_old = energy_at(data, start - 1);
        sum += e_new - e_old;
        sums[start] = sum;
        if constexpr (With_squares) {
            sum_sq += e_new * e_new - e_old * e_old;
            sum_sqs[start] = sum_sq;
        }
    }
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
    if (sum_sqs) {
        sum_sqs->resize(windows);
        window_sums<true>(data, window, windows, sums.data(), sum_sqs->data());
    } else {
        window_sums<false>(data, window, windows, sums.data(), nullptr);
    }
}

} // namespace anc::dsp
