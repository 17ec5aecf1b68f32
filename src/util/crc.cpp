#include "util/crc.h"

#include <array>

namespace anc {

namespace {

// Standard byte-wise tables.  Processing 8 bits through the table is the
// textbook identity for polynomial division — the result matches the
// bit-by-bit loop exactly (tests/util/crc_test.cpp pins both against the
// bitwise reference), it just retires one table lookup instead of eight
// serially-dependent shift/xor steps.

constexpr std::array<std::uint32_t, 256> crc32_table = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t byte = 0; byte < 256; ++byte) {
        std::uint32_t crc = byte;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1u) ^ (0xedb88320u & (0u - (crc & 1u)));
        table[byte] = crc;
    }
    return table;
}();

constexpr std::array<std::uint16_t, 256> crc16_table = [] {
    std::array<std::uint16_t, 256> table{};
    for (std::uint32_t byte = 0; byte < 256; ++byte) {
        std::uint16_t crc = static_cast<std::uint16_t>(byte << 8u);
        for (int k = 0; k < 8; ++k) {
            const bool msb = (crc & 0x8000u) != 0;
            crc = static_cast<std::uint16_t>(crc << 1u);
            if (msb)
                crc ^= 0x1021u;
        }
        table[byte] = crc;
    }
    return table;
}();

} // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bits)
{
    // Reflected CRC-32 (poly 0xedb88320), table-driven: gather 8 bits
    // LSB-first (the reflected convention) and fold them per lookup.
    std::uint32_t crc = 0xffffffffu;
    std::size_t i = 0;
    for (; i + 8 <= bits.size(); i += 8) {
        std::uint32_t byte = 0;
        for (std::size_t k = 0; k < 8; ++k)
            byte |= static_cast<std::uint32_t>(bits[i + k] & 1u) << k;
        crc = (crc >> 8u) ^ crc32_table[(crc ^ byte) & 0xffu];
    }
    for (; i < bits.size(); ++i) {
        crc ^= static_cast<std::uint32_t>(bits[i] & 1u);
        crc = (crc >> 1u) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

std::uint32_t crc32_bytes(std::string_view bytes)
{
    std::uint32_t crc = 0xffffffffu;
    for (const char byte : bytes)
        crc = (crc >> 8u) ^ crc32_table[(crc ^ static_cast<unsigned char>(byte)) & 0xffu];
    return ~crc;
}

std::uint16_t crc16(std::span<const std::uint8_t> bits)
{
    // MSB-first CRC-16-CCITT: gather 8 bits MSB-first per lookup.
    std::uint16_t crc = 0xffffu;
    std::size_t i = 0;
    for (; i + 8 <= bits.size(); i += 8) {
        std::uint32_t byte = 0;
        for (std::size_t k = 0; k < 8; ++k)
            byte = (byte << 1u) | (bits[i + k] & 1u);
        crc = static_cast<std::uint16_t>(
            (crc << 8u) ^ crc16_table[((crc >> 8u) ^ byte) & 0xffu]);
    }
    for (; i < bits.size(); ++i) {
        const bool msb = (crc & 0x8000u) != 0;
        crc = static_cast<std::uint16_t>(crc << 1u);
        if (msb != ((bits[i] & 1u) != 0))
            crc ^= 0x1021u;
    }
    return crc;
}

} // namespace anc
