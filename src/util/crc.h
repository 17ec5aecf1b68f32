// CRC-32 (IEEE 802.3) and CRC-16-CCITT over bit sequences.
//
// Frame headers carry a CRC-16 so a receiver can tell a correctly decoded
// header from garbage (the ANC receiver *must* validate headers before
// trusting them to pick a packet out of the sent-packet buffer, §7.3).
// Payload integrity checks in the examples and the COPE baseline use
// CRC-32; the sweep journal stamps its lines with the byte form.

#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace anc {

/// CRC-32/IEEE over a bit sequence (one bit per byte, as in util/bits.h).
/// The reflected algorithm: to reproduce standard byte-wise check values,
/// feed each byte least-significant-bit first.  Over the library's own
/// bit streams any consistent order is fine.
std::uint32_t crc32(std::span<const std::uint8_t> bits);

/// CRC-32/IEEE over an ordinary byte string: the standard check value
/// ("123456789" -> 0xcbf43926), same table as crc32().
std::uint32_t crc32_bytes(std::string_view bytes);

/// CRC-16-CCITT (poly 0x1021, init 0xffff) over a bit sequence.
std::uint16_t crc16(std::span<const std::uint8_t> bits);

} // namespace anc
