#include "dsp/msk.h"

#include <array>
#include <bit>
#include <cstdint>
#include <numbers>

#include "util/phase.h"
#include "util/simd.h"

namespace anc::dsp {

double msk_phase_step(std::uint8_t bit)
{
    constexpr double half_pi = std::numbers::pi / 2.0;
    return bit ? half_pi : -half_pi;
}

std::vector<double> phase_differences_for_bits(std::span<const std::uint8_t> bits)
{
    std::vector<double> steps;
    phase_differences_for_bits_into(bits, steps);
    return steps;
}

void phase_differences_for_bits_into(std::span<const std::uint8_t> bits,
                                     std::vector<double>& out)
{
    // Presized indexed writes let the ±π/2 select compile to a vector
    // blend; push_back's size bump kept the historical loop scalar.
    out.resize(bits.size());
    double* steps = out.data();
    for (std::size_t i = 0; i < bits.size(); ++i)
        steps[i] = msk_phase_step(bits[i]);
}

Msk_modulator::Msk_modulator(double amplitude, double initial_phase)
    : amplitude_{amplitude}, initial_phase_{initial_phase}
{
}

Signal Msk_modulator::modulate(std::span<const std::uint8_t> bits) const
{
    Signal signal;
    modulate_into(bits, signal);
    return signal;
}

void Msk_modulator::modulate_into(std::span<const std::uint8_t> bits, Signal& out) const
{
    out.clear();
    out.reserve(bits.size() + 1);
    // Sample n is polar(amplitude, phase_n), and after the first step
    // the wrapped phase only moves between a handful of values (≤ 8 seen
    // over 100k-bit random frames; rounding is why there are more than
    // four).  So the walk runs over a phase-state table built
    // as it goes: a state is one wrapped phase (compared by bit pattern),
    // holding its sample and, per bit, the state the historical
    // wrap_phase_bounded step leads to.  Each new state costs one
    // std::polar, each new transition one step — the same calls on the
    // same inputs as the per-sample loop, so the samples are the same.
    double phase = initial_phase_;
    out.push_back(std::polar(amplitude_, phase));
    if (bits.empty())
        return;
    // The caller's initial phase may exceed 2*pi: the first step takes
    // the full fmod wrap; after it the phase lives in (-pi, pi], so a
    // step keeps it within the branch-only fold's exact domain.
    phase = wrap_phase(phase + msk_phase_step(bits[0]));
    out.push_back(std::polar(amplitude_, phase));

    constexpr int max_states = 32;
    constexpr std::uint8_t unknown = 0xff;
    std::array<double, max_states> phases{};
    std::array<Sample, max_states> samples{};
    std::array<std::array<std::uint8_t, 2>, max_states> next_state{};
    phases[0] = phase;
    samples[0] = out.back();
    next_state[0] = {unknown, unknown};
    int count = 1;
    int current = 0;
    for (std::size_t n = 1; n < bits.size(); ++n) {
        const int bit = bits[n] != 0;
        int next = next_state[current][bit];
        if (next == unknown) {
            const double stepped = wrap_phase_bounded(phases[current] + msk_phase_step(bits[n]));
            next = 0;
            while (next < count
                   && std::bit_cast<std::uint64_t>(phases[next])
                          != std::bit_cast<std::uint64_t>(stepped))
                ++next;
            if (next == count) {
                if (count == max_states) {
                    // Full (never seen): restart the table from here.
                    phases[0] = phases[current];
                    samples[0] = samples[current];
                    next_state[0] = {unknown, unknown};
                    current = 0;
                    count = 1;
                    next = 1;
                }
                phases[count] = stepped;
                samples[count] = std::polar(amplitude_, stepped);
                next_state[count] = {unknown, unknown};
                ++count;
            }
            next_state[current][bit] = static_cast<std::uint8_t>(next);
        }
        current = next;
        out.push_back(samples[current]);
    }
}

Bits Msk_demodulator::demodulate(Signal_view signal) const
{
    Bits bits;
    demodulate_into(signal, bits);
    return bits;
}

void Msk_demodulator::demodulate_into(Signal_view signal, Bits& out) const
{
    out.clear();
    if (signal.size() < 2)
        return;
    // The sign-structure decision of util/simd.cpp (msk_decide_scalar),
    // on lanes where the CPU has them.
    out.resize(signal.size() - 1);
    simd::msk_decide(reinterpret_cast<const double*>(signal.data()), out.size(),
                     out.data());
}

std::vector<double> Msk_demodulator::phase_differences(Signal_view signal) const
{
    std::vector<double> diffs;
    if (signal.size() < 2)
        return diffs;
    diffs.reserve(signal.size() - 1);
    for (std::size_t n = 0; n + 1 < signal.size(); ++n)
        diffs.push_back(std::arg(signal[n + 1] * std::conj(signal[n])));
    return diffs;
}

} // namespace anc::dsp
