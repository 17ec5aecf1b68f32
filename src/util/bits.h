// Bit-sequence utilities.
//
// Frames, pilots, headers, and payloads are all sequences of bits.  We
// represent a bit sequence as std::vector<std::uint8_t> with one bit per
// element (value 0 or 1).  That costs 8x the memory of a packed
// representation but makes every algorithm in the PHY and the decoder
// (alignment searches, mirroring, per-bit comparison) direct and
// index-stable, which matters far more here than footprint.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace anc {

using Bits = std::vector<std::uint8_t>;

/// Bit 0 of each byte of `word` packed into bits 0..7 (byte j to bit j).
/// The multiply places byte j's bit at position 8j + 7(8-j); all 64
/// partial products land on distinct bit positions (8j ≡ 7i has no
/// solutions in range besides the diagonal), so the sum is carry-free
/// and bits 56..63 of the product read [b0..b7] exactly.
inline std::uint64_t pack8_lsb(std::uint64_t word)
{
    return ((word & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

/// The 8 bytes at `p` as one word, byte j in bits 8j..8j+7.
inline std::uint64_t load8(const std::uint8_t* p)
{
    static_assert(std::endian::native == std::endian::little);
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    return word;
}

/// Bit 0 of the 8 bytes at `p`, packed into bits 0..7.
inline std::uint64_t gather8_lsb(const std::uint8_t* p)
{
    return pack8_lsb(load8(p));
}

/// Append an unsigned value MSB-first as `width` bits.
void append_uint(Bits& bits, std::uint64_t value, int width);

/// Read `width` bits MSB-first starting at `offset`.  The caller must
/// ensure offset + width is in range.
std::uint64_t read_uint(std::span<const std::uint8_t> bits, std::size_t offset, int width);

/// Number of positions where the two sequences differ, compared over the
/// shorter length, plus the length difference (a missing bit is an error).
std::size_t hamming_distance(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// Fraction of differing bits over max(len(a), len(b)); 0 for two empty
/// sequences.
double bit_error_rate(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// `count` random bits from `rng`: bit i is the low bit of the i-th
/// next_u32() draw (Pcg32::low_bits_into).
Bits random_bits(std::size_t count, Pcg32& rng);

/// The sequence reversed.  A frame carries a mirrored pilot/header at its
/// end so that a receiver scanning the samples backwards (§7.4) sees them
/// in forward order.
Bits mirrored(std::span<const std::uint8_t> bits);

/// "0"/"1" rendering for diagnostics.
std::string to_string(std::span<const std::uint8_t> bits);

} // namespace anc
