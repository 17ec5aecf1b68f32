// Additive scrambler (payload whitening).
//
// The amplitude estimator of §6.2 relies on E[cos(theta - phi)] ~ 0, which
// holds only if the transmitted bits look random.  The paper's fix: "we
// XOR them with a pseudo-random sequence at the sender, and XOR them again
// with the same sequence at the receiver" — a classic additive scrambler.
// We generate the keystream with a 16-bit Fibonacci LFSR (x^16 + x^14 +
// x^13 + x^11 + 1, the CCITT V.41 polynomial), seeded identically at both
// ends with the protocol seed 0xACE1.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bits.h"

namespace anc::dsp {

/// Keystream period: the V.41 LFSR is maximal-length, so from its seed
/// it visits all 65,535 nonzero 16-bit states before repeating.
inline constexpr std::size_t scrambler_period = 65535;

/// Self-inverse whitening transform: scramble(scramble(x)) == x.  XORs
/// the bits with the keystream, restarted from the seed on every call
/// (so each packet is whitened independently) and wrapping after
/// `scrambler_period` bits, as the LFSR does.  The keystream is one
/// compile-time table, shared by every caller.
Bits scramble(std::span<const std::uint8_t> bits);

} // namespace anc::dsp
