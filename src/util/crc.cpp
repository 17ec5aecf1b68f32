#include "util/crc.h"

#include <array>

#include "util/bits.h"

namespace anc {

namespace {

// Slice-by-8 tables for the reflected CRC-32 (poly 0xedb88320).
// Table 0 is the textbook byte-wise table; table k advances a byte's
// contribution by k further zero bytes, so one step folds 8 bytes with 8
// independent lookups.  Polynomial division is linear, so the result
// matches the bit-by-bit loop exactly (tests/util/crc_test.cpp pins both
// against the bitwise reference).  CRC-16 keeps its byte-wise table: its
// only inputs are 48-bit headers.

constexpr std::array<std::array<std::uint32_t, 256>, 8> crc32_tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t byte = 0; byte < 256; ++byte) {
        std::uint32_t crc = byte;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1u) ^ (0xedb88320u & (0u - (crc & 1u)));
        tables[0][byte] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t byte = 0; byte < 256; ++byte) {
            const std::uint32_t prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8u) ^ tables[0][prev & 0xffu];
        }
    }
    return tables;
}();

/// Fold 8 message bytes (byte j in bits 8j..8j+7) into `crc`.
inline std::uint32_t crc32_fold8(std::uint32_t crc, std::uint64_t word)
{
    const auto& t = crc32_tables;
    const std::uint32_t lo = crc ^ static_cast<std::uint32_t>(word);
    const auto hi = static_cast<std::uint32_t>(word >> 32u);
    return t[7][lo & 0xffu] ^ t[6][(lo >> 8u) & 0xffu] ^ t[5][(lo >> 16u) & 0xffu]
           ^ t[4][lo >> 24u] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8u) & 0xffu]
           ^ t[1][(hi >> 16u) & 0xffu] ^ t[0][hi >> 24u];
}

inline std::uint32_t crc32_fold1(std::uint32_t crc, std::uint32_t byte)
{
    return (crc >> 8u) ^ crc32_tables[0][(crc ^ byte) & 0xffu];
}

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
    // Reflected CRC-32 over bit 0 of each byte, gathered LSB-first (the
    // reflected convention): 64 bits per slice-by-8 step, then 8 per
    // byte step, then the bitwise tail.
    const std::uint8_t* p = bits.data();
    const std::size_t n = bits.size();
    std::uint32_t crc = 0xffffffffu;
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        std::uint64_t word = 0;
        for (std::size_t k = 0; k < 8; ++k)
            word |= gather8_lsb(p + i + 8 * k) << (8 * k);
        crc = crc32_fold8(crc, word);
    }
    for (; i + 8 <= n; i += 8)
        crc = crc32_fold1(crc, static_cast<std::uint32_t>(gather8_lsb(p + i)));
    for (; i < n; ++i) {
        crc ^= static_cast<std::uint32_t>(p[i] & 1u);
        crc = (crc >> 1u) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

std::uint32_t crc32_bytes(std::string_view bytes)
{
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::size_t n = bytes.size();
    std::uint32_t crc = 0xffffffffu;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        crc = crc32_fold8(crc, load8(p + i));
    for (; i < n; ++i)
        crc = crc32_fold1(crc, p[i]);
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
