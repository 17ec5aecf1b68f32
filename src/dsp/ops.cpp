#include "dsp/ops.h"

#include <algorithm>
#include <cmath>

#include "dsp/energy_scan.h"

namespace anc::dsp {

// std::complex<double> is guaranteed layout-compatible with double[2]
// ([complex.numbers.general]), so the kernels below iterate over the raw
// interleaved re/im array — the form GCC and Clang auto-vectorize without
// needing to see through std::complex operator overloads.  Each kernel
// performs exactly the arithmetic (same operations, same order) of the
// value-returning function it backs, so results are bit-identical.

void scale_in_place(Signal& signal, double scale)
{
    double* data = reinterpret_cast<double*>(signal.data());
    const std::size_t n = 2 * signal.size();
    for (std::size_t i = 0; i < n; ++i)
        data[i] *= scale;
}

void rotate_in_place(Signal& signal, double phase)
{
    const Sample rotor = std::polar(1.0, phase);
    const double rr = rotor.real();
    const double ri = rotor.imag();
    double* data = reinterpret_cast<double*>(signal.data());
    const std::size_t n = signal.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Exactly std::complex operator*: (a+bi)(rr+ri i).
        const double re = data[2 * i];
        const double im = data[2 * i + 1];
        data[2 * i] = re * rr - im * ri;
        data[2 * i + 1] = re * ri + im * rr;
    }
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

void add_into(Signal& acc, Signal_view signal)
{
    if (acc.size() < signal.size())
        acc.resize(signal.size(), Sample{0.0, 0.0});
    double* a = reinterpret_cast<double*>(acc.data());
    const double* s = reinterpret_cast<const double*>(signal.data());
    const std::size_t n = 2 * signal.size();
    for (std::size_t i = 0; i < n; ++i)
        a[i] += s[i];
}

void accumulate(Signal& acc, Signal_view signal, std::size_t offset)
{
    if (acc.size() < offset + signal.size())
        acc.resize(offset + signal.size(), Sample{0.0, 0.0});
    double* a = reinterpret_cast<double*>(acc.data() + offset);
    const double* s = reinterpret_cast<const double*>(signal.data());
    const std::size_t n = 2 * signal.size();
    for (std::size_t i = 0; i < n; ++i)
        a[i] += s[i];
}

double normalize_power_in_place(Signal& signal, double target_power)
{
    const double current = power(signal);
    if (current > 0.0)
        scale_in_place(signal, std::sqrt(target_power / current));
    return current;
}

// ------------------------------------------------- value-returning API

Signal scaled(Signal_view signal, double scale)
{
    Signal out{signal.begin(), signal.end()};
    scale_in_place(out, scale);
    return out;
}

Signal rotated(Signal_view signal, double phase)
{
    Signal out{signal.begin(), signal.end()};
    rotate_in_place(out, phase);
    return out;
}

Signal delayed(Signal_view signal, std::size_t count)
{
    Signal out;
    out.reserve(count + signal.size());
    out.assign(count, Sample{0.0, 0.0});
    out.insert(out.end(), signal.begin(), signal.end());
    return out;
}

Signal added(Signal_view a, Signal_view b)
{
    Signal out;
    out.reserve(std::max(a.size(), b.size()));
    add_into(out, a);
    add_into(out, b);
    return out;
}

Signal time_reversed(Signal_view signal)
{
    Signal out;
    time_reverse_into(signal, out);
    return out;
}

Signal slice(Signal_view signal, std::size_t begin, std::size_t end)
{
    Signal out;
    slice_into(signal, begin, end, out);
    return out;
}

Signal_view slice_view(Signal_view signal, std::size_t begin, std::size_t end)
{
    begin = std::min(begin, signal.size());
    end = std::clamp(end, begin, signal.size());
    return signal.subspan(begin, end - begin);
}

double power(Signal_view signal)
{
    return mean_energy(signal);
}

} // namespace anc::dsp
