// Minimum Shift Keying modulation and demodulation (§5 of the paper).
//
// MSK encodes a "1" as a phase advance of +pi/2 between consecutive
// samples and a "0" as -pi/2; the amplitude is constant.  Demodulation is
// differential — the ratio of consecutive samples cancels both the channel
// attenuation h and the channel phase gamma (Eq. 1), which is exactly the
// robustness the paper's interference decoder builds on.
//
// Each operation writes into a caller-owned buffer (cleared first;
// typically a dsp::Workspace lease), so none allocates in steady state.

#pragma once

#include <cstdint>
#include <span>

#include "dsp/sample.h"
#include "util/bits.h"

namespace anc::dsp {

/// Phase step that encodes a single bit: +pi/2 for 1, -pi/2 for 0.
double msk_phase_step(std::uint8_t bit);

/// Expected per-symbol phase differences for a bit sequence, into `out`.
/// This is the "known phase difference" sequence (delta theta_s) that an
/// ANC receiver derives from a packet it already knows (§6.3): the
/// receiver never needs the absolute phases, only these differences.
void phase_differences_for_bits_into(std::span<const std::uint8_t> bits,
                                     std::vector<double>& out);

/// MSK modulator.
///
/// Produces len(bits) + 1 samples: the initial reference sample plus one
/// sample per bit (a bit lives in the transition *between* samples).
class Msk_modulator {
public:
    /// `amplitude` is the constant envelope A_s; `initial_phase` seeds the
    /// phase accumulator (a real transmitter starts at an arbitrary phase,
    /// so experiments randomize it).  The wrapped phase revisits a
    /// handful of values, so std::polar runs once per distinct phase (a
    /// phase-state table) and every sample keeps the bits of the
    /// per-sample evaluation.  Both math profiles modulate this way: the
    /// walk has no transcendental left to approximate.
    explicit Msk_modulator(double amplitude = 1.0, double initial_phase = 0.0);

    /// Modulate `bits` into `out`.
    void modulate_into(std::span<const std::uint8_t> bits, Signal& out) const;

private:
    double amplitude_;
    double initial_phase_;
};

/// MSK differential demodulator.
class Msk_demodulator {
public:
    /// Hard decisions into `out`: bit n is 1 iff
    /// arg(y[n+1] * conj(y[n])) >= 0.  Produces len(signal) - 1 bits
    /// (none for signals shorter than 2).  The decision is evaluated from
    /// the sign structure of the ratio's imaginary part — no atan2 —
    /// which is exactly equivalent to the arg-based rule for finite
    /// samples (see simd::msk_decide, which runs it 4 or 8 transitions
    /// per step on the lane backends).
    void demodulate_into(Signal_view signal, Bits& out) const;
};

} // namespace anc::dsp
