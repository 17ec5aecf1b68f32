// Additive scrambler (payload whitening).
//
// The amplitude estimator of §6.2 relies on E[cos(theta - phi)] ~ 0, which
// holds only if the transmitted bits look random.  The paper's fix: "we
// XOR them with a pseudo-random sequence at the sender, and XOR them again
// with the same sequence at the receiver" — a classic additive scrambler.
// We generate the keystream with a 16-bit Fibonacci LFSR (x^16 + x^14 +
// x^13 + x^11 + 1, the CCITT V.41 polynomial), seeded identically at both
// ends.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bits.h"

namespace anc::dsp {

/// Self-inverse whitening transform: scramble(scramble(x)) == x.
///
/// The V.41 LFSR is maximal-length: from any nonzero seed it visits all
/// 65,535 nonzero states before repeating.  So every seed's keystream is
/// one shared full-period sequence (a compile-time table built from
/// the protocol seed 0xACE1) read from that seed's offset, and
/// an instance holds only the offset.
class Scrambler {
public:
    /// Keystream period: the number of nonzero 16-bit LFSR states.
    static constexpr std::size_t period = 65535;

    explicit Scrambler(std::uint16_t seed = 0xACE1u);

    /// XOR the bits with the keystream (restarted from the seed on every
    /// call, so each packet is whitened independently; it wraps after
    /// `period` bits, as the LFSR does).
    Bits apply(std::span<const std::uint8_t> bits) const;

private:
    std::size_t offset_; // the seed's position in the shared keystream
};

} // namespace anc::dsp
