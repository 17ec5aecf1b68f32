// Trigger timing (§7.6) and the deliberate partial overlap (§7.2).
//
// In the paper a node that wants two neighbours to collide appends a
// trigger sequence; the triggered nodes then each wait a random number of
// slots so that the two packets overlap *incompletely*, leaving
// interference-free pilot regions at the head of the first packet and the
// tail of the second.  Who triggers whom is fixed by each topology's round
// schedule (src/sim/), so no trigger bits are sent: collide() in
// sim/rounds.cpp draws the two start delays with draw_distinct_delays.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/rng.h"

namespace anc {

struct Trigger_config {
    /// Number of backoff slots (§7.2 uses 1..32; we default to 8 — see
    /// slot_symbols below for why fewer, larger slots).
    std::uint32_t slot_count = 8;
    /// Slot size in symbols.  §7.2 says the size depends on rate, packet
    /// size and modulation; the binding constraint is that the clean
    /// (interference-free) region at the head of the first packet and the
    /// tail of the second must cover a full pilot + header (128 bits), or
    /// the receivers cannot synchronize.  140 symbols per slot guarantees
    /// that whenever the two senders draw *different* slots; combined
    /// with 8 slots and ~2300-bit frames this lands the mean overlap near
    /// the paper's reported 80% (§11.4).
    std::size_t slot_symbols = 140;
};

/// Start delays for the *two* triggered senders.  The paper "enforces"
/// incomplete overlap (§7.2); we realize that by making the two nodes
/// draw distinct slots (think of the trigger assigning disjoint backoff
/// ranges), which guarantees at least one slot of interference-free
/// signal at the head and tail of the collision.
std::pair<std::size_t, std::size_t> draw_distinct_delays(Trigger_config config, Pcg32& rng);

/// Fraction of the shorter packet overlapped by the longer given the two
/// start offsets and lengths (diagnostic used to report the paper's
/// "average overlap of 80%").
double overlap_fraction(std::size_t start_a, std::size_t len_a,
                        std::size_t start_b, std::size_t len_b);

} // namespace anc
