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

void Msk_modulator::modulate_into(std::span<const std::uint8_t> bits, Signal& out) const
{
    // Sample n is polar(amplitude, phase_n), and after the first step
    // the wrapped phase only moves between a handful of values (the
    // closed table holds 4 for most initial phases and at most 10 over
    // 2·10^6 random ones; rounding is why there are more than four).
    // So the walk runs over a phase-state table: a state is one wrapped
    // phase (compared by bit pattern), holding its sample and, per bit,
    // the state the historical wrap_phase_bounded step leads to.  Each
    // state costs one std::polar, each transition one step — the same
    // calls on the same inputs as the per-sample loop, so the samples
    // are the same.
    out.resize(bits.size() + 1);
    Sample* dst = out.data();
    dst[0] = std::polar(amplitude_, initial_phase_);
    if (bits.empty())
        return;
    // The caller's initial phase may exceed 2*pi: the first step takes
    // the full fmod wrap; after it the phase lives in (-pi, pi], so a
    // step keeps it within the branch-only fold's exact domain.
    const double first = wrap_phase(initial_phase_ + msk_phase_step(bits[0]));

    // Close the table from the first phase, breadth first.
    constexpr int max_states = 32;
    std::array<double, max_states> phases{};
    std::array<std::array<std::uint8_t, 2>, max_states> next_state{};
    phases[0] = first;
    int count = 1;
    for (int state = 0; state < count; ++state) {
        for (int bit = 0; bit < 2; ++bit) {
            const double stepped = wrap_phase_bounded(
                phases[state] + msk_phase_step(static_cast<std::uint8_t>(bit)));
            int next = 0;
            while (next < count
                   && std::bit_cast<std::uint64_t>(phases[next])
                          != std::bit_cast<std::uint64_t>(stepped))
                ++next;
            if (next == count) {
                if (count == max_states) {
                    // No small closure (never seen): step every sample.
                    double phase = first;
                    dst[1] = std::polar(amplitude_, phase);
                    for (std::size_t n = 1; n < bits.size(); ++n) {
                        phase = wrap_phase_bounded(phase + msk_phase_step(bits[n]));
                        dst[n + 1] = std::polar(amplitude_, phase);
                    }
                    return;
                }
                phases[count++] = stepped;
            }
            next_state[state][bit] = static_cast<std::uint8_t>(next);
        }
    }
    std::array<Sample, max_states> samples{};
    for (int state = 0; state < count; ++state)
        samples[state] = std::polar(amplitude_, phases[state]);
    // (state, nibble) -> the states after each of the nibble's 4 bits,
    // low bit first; the last is the state the nibble ends in.
    std::array<std::array<std::array<std::uint8_t, 4>, 16>, max_states> nibble_steps{};
    for (int state = 0; state < count; ++state) {
        for (unsigned nibble = 0; nibble < 16; ++nibble) {
            int at = state;
            for (unsigned k = 0; k < 4; ++k) {
                at = next_state[at][(nibble >> k) & 1u];
                nibble_steps[state][nibble][k] = static_cast<std::uint8_t>(at);
            }
        }
    }

    // Bit n writes sample n + 1.  Eight bits per step: fold each byte to
    // its nonzero flag (msk_phase_step reads any nonzero byte as a 1),
    // pack the flags into one index, and take it a nibble at a time.
    constexpr std::uint64_t low7 = 0x7f7f7f7f7f7f7f7fULL;
    dst[1] = samples[0];
    int state = 0;
    std::size_t n = 1;
    for (; n + 8 <= bits.size(); n += 8) {
        const std::uint64_t word = load8(bits.data() + n);
        const auto index = static_cast<unsigned>(pack8_lsb((((word & low7) + low7) | word) >> 7));
        Sample* at = dst + n + 1;
        for (const unsigned nibble : {index & 15u, index >> 4}) {
            const auto& ids = nibble_steps[state][nibble];
            at[0] = samples[ids[0]];
            at[1] = samples[ids[1]];
            at[2] = samples[ids[2]];
            at[3] = samples[ids[3]];
            at += 4;
            state = ids[3];
        }
    }
    for (; n < bits.size(); ++n) {
        state = next_state[state][bits[n] != 0];
        dst[n + 1] = samples[state];
    }
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

} // namespace anc::dsp
