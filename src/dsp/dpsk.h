// pi/4-DQPSK: differential quadrature phase-shift keying.
//
// §4 of the paper: "the ideas we develop in this paper, especially §6.1,
// are applicable to any phase shift keying modulation."  This module
// provides a second PSK scheme to make that concrete: two bits per
// transition, phase steps of +-pi/4 and +-3pi/4 (Gray-mapped), constant
// envelope, and — like MSK — channel-invariant differential
// demodulation.  The interference decoder's generic-alphabet entry point
// (Interference_decoder::decode_symbols) decodes a DQPSK signal out of a
// collision exactly as it does MSK.

#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dsp/sample.h"
#include "util/bits.h"

namespace anc::dsp {

/// Phase step per symbol index; index = dibit (b0 b1) Gray-decoded.
///   00 -> +pi/4, 01 -> +3pi/4, 11 -> -3pi/4, 10 -> -pi/4
inline constexpr std::array<double, 4> dqpsk_steps = {
    0.25 * 3.14159265358979323846,  // 00
    0.75 * 3.14159265358979323846,  // 01
    -0.75 * 3.14159265358979323846, // 11
    -0.25 * 3.14159265358979323846, // 10
};

/// Symbol index (0..3) for a dibit.
std::size_t dqpsk_symbol_for_bits(std::uint8_t b0, std::uint8_t b1);

/// The dibit for a symbol index.
std::pair<std::uint8_t, std::uint8_t> dqpsk_bits_for_symbol(std::size_t symbol);

/// Nearest alphabet entry for a measured phase difference.
std::size_t dqpsk_nearest_symbol(double phase_difference);

/// Expected per-transition phase differences for a bit sequence (the
/// "known delta theta" sequence when the known packet is DQPSK).  The
/// bit count must be even.
std::vector<double> dqpsk_phase_steps_for_bits(std::span<const std::uint8_t> bits);

class Dqpsk_modulator {
public:
    explicit Dqpsk_modulator(double amplitude = 1.0, double initial_phase = 0.0);

    /// bits.size() must be even; produces bits.size()/2 + 1 samples.
    /// Phases are accumulated first and converted through the batched
    /// ops::polar_into fill (std::polar per element, byte-identical to
    /// the historical loop).
    Signal modulate(std::span<const std::uint8_t> bits) const;

    double amplitude() const { return amplitude_; }

private:
    double amplitude_;
    double initial_phase_;
};

class Dqpsk_demodulator {
public:
    /// Hard decisions: two bits per sample transition.
    Bits demodulate(Signal_view signal) const;
};

} // namespace anc::dsp
