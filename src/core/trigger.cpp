#include "core/trigger.h"

#include <algorithm>

namespace anc {

std::pair<std::size_t, std::size_t> draw_distinct_delays(Pcg32& rng)
{
    const std::uint32_t first = rng.next_in_range(1, trigger_slot_count);
    std::uint32_t second = first;
    while (second == first)
        second = rng.next_in_range(1, trigger_slot_count);
    return {static_cast<std::size_t>(first) * trigger_slot_symbols,
            static_cast<std::size_t>(second) * trigger_slot_symbols};
}

double overlap_fraction(std::size_t start_a, std::size_t len_a,
                        std::size_t start_b, std::size_t len_b)
{
    const std::size_t end_a = start_a + len_a;
    const std::size_t end_b = start_b + len_b;
    const std::size_t begin = std::max(start_a, start_b);
    const std::size_t end = std::min(end_a, end_b);
    if (end <= begin)
        return 0.0;
    const std::size_t shorter = std::min(len_a, len_b);
    if (shorter == 0)
        return 0.0;
    return static_cast<double>(end - begin) / static_cast<double>(shorter);
}

} // namespace anc
