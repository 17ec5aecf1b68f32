// The historical byte-per-bit pattern scan, frozen: the reference the
// pilot property tests and the hostile find_pattern loop compare both
// phy::find_pattern overloads against.  Uninstrumented.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "phy/pilot.h"

namespace anc::test {

inline std::optional<phy::Pattern_match> find_pattern_scalar(
    std::span<const std::uint8_t> bits, std::span<const std::uint8_t> pattern,
    std::size_t from, std::size_t to, std::size_t max_errors)
{
    if (pattern.empty() || bits.size() < pattern.size())
        return std::nullopt;
    const std::size_t last_start = bits.size() - pattern.size();
    from = std::min(from, last_start);
    to = std::min(to, last_start);
    if (from > to)
        return std::nullopt;

    std::optional<phy::Pattern_match> best;
    for (std::size_t start = from; start <= to; ++start) {
        std::size_t errors = 0;
        for (std::size_t i = 0; i < pattern.size() && errors <= max_errors; ++i)
            errors += (bits[start + i] != pattern[i]);
        if (errors <= max_errors && (!best || errors < best->errors)) {
            best = phy::Pattern_match{start, errors};
            if (errors == 0)
                break;
        }
    }
    return best;
}

} // namespace anc::test
