#include "dsp/ops.h"

#include <algorithm>
#include <cmath>

#include "dsp/energy_scan.h"

namespace anc::dsp {

// std::complex<double> is guaranteed layout-compatible with double[2]
// ([complex.numbers.general]), so the kernels below iterate over the raw
// interleaved re/im array — the form GCC and Clang auto-vectorize without
// needing to see through std::complex operator overloads.

void scale_in_place(Signal& signal, double scale)
{
    double* data = reinterpret_cast<double*>(signal.data());
    const std::size_t n = 2 * signal.size();
    for (std::size_t i = 0; i < n; ++i)
        data[i] *= scale;
}

void time_reverse_into(Signal_view signal, Signal& out)
{
    const std::size_t n = signal.size();
    out.resize(n);
    const double* in = reinterpret_cast<const double*>(signal.data());
    double* rev = reinterpret_cast<double*>(out.data());
    for (std::size_t i = 0; i < n; ++i) {
        rev[2 * i] = in[2 * (n - 1 - i)];
        rev[2 * i + 1] = -in[2 * (n - 1 - i) + 1];
    }
}

void slice_into(Signal_view signal, std::size_t begin, std::size_t end, Signal& out)
{
    begin = std::min(begin, signal.size());
    end = std::clamp(end, begin, signal.size());
    out.assign(signal.begin() + static_cast<std::ptrdiff_t>(begin),
               signal.begin() + static_cast<std::ptrdiff_t>(end));
}

double normalize_power_in_place(Signal& signal, double target_power)
{
    const double current = mean_energy(signal);
    if (current > 0.0)
        scale_in_place(signal, std::sqrt(target_power / current));
    return current;
}

Signal_view slice_view(Signal_view signal, std::size_t begin, std::size_t end)
{
    begin = std::min(begin, signal.size());
    end = std::clamp(end, begin, signal.size());
    return signal.subspan(begin, end - begin);
}

} // namespace anc::dsp
