#include "phy/pilot.h"

#include <algorithm>

#include "util/obs.h"
#include "util/rng.h"
#include "util/simd.h"

namespace anc::phy {

const Bits& pilot_sequence()
{
    // Generated once from a fixed seed: the pilot is part of the protocol,
    // identical at every node, chosen pseudo-randomly (§7.2) so it is
    // unlikely to appear inside scrambled payload.
    static const Bits pilot = [] {
        Pcg32 rng{0x414e435f50494c4full /* "ANC_PILO" */, 7};
        return random_bits(pilot_length, rng);
    }();
    return pilot;
}

const Bits& pilot_mirrored()
{
    static const Bits mirror = mirrored(pilot_sequence());
    return mirror;
}

Packed_bits::Packed_bits(std::span<const std::uint8_t> bits)
    : lease_{dsp::Workspace::current().words()}, bit_count_{bits.size()}
{
    // Two zero pad words cover the widest read any in-range start can
    // issue: position p reads words p/64 .. p/64 + stride - 1, and with
    // p + L <= n that top index is at most (n + 126)/64 - 1 <
    // ceil(n/64) + 2 for every pattern length L >= 1.
    const std::size_t word_count = (bits.size() + 63) / 64;
    lease_->assign(word_count + 2, 0);
    std::uint64_t* words = lease_->data();
    std::size_t i = 0;
    for (; i + 8 <= bits.size(); i += 8)
        words[i >> 6] |= gather8_lsb(bits.data() + i) << (i & 63);
    for (; i < bits.size(); ++i)
        words[i >> 6] |= static_cast<std::uint64_t>(bits[i] & 1u) << (i & 63);
}

Packed_pattern::Packed_pattern(std::span<const std::uint8_t> pattern)
    : length_{pattern.size()}, stride_{(pattern.size() + 126) / 64}
{
    if (length_ == 0)
        return; // degenerate — find_pattern never scans it
    shifted_.assign(64 * stride_, 0);
    masks_.assign(64 * stride_, 0);
    for (std::size_t shift = 0; shift < 64; ++shift) {
        std::uint64_t* copy = shifted_.data() + shift * stride_;
        std::uint64_t* mask = masks_.data() + shift * stride_;
        for (std::size_t i = 0; i < length_; ++i) {
            const std::size_t bit = shift + i;
            copy[bit >> 6] |= static_cast<std::uint64_t>(pattern[i] & 1u)
                              << (bit & 63);
            mask[bit >> 6] |= std::uint64_t{1} << (bit & 63);
        }
    }
}

const Packed_pattern& pilot_packed()
{
    static const Packed_pattern packed{pilot_sequence()};
    return packed;
}

const Packed_pattern& pilot_mirrored_packed()
{
    static const Packed_pattern packed{pilot_mirrored()};
    return packed;
}

namespace {

// The scan tracks its running result as a single packed key,
// (errors << 48) | start: taking the minimum key is exactly the scalar
// reference's "first position with the fewest errors" rule (fewer
// errors always wins; among equal error counts the lower start wins),
// and a zero-error key makes errors_of(key) == 0 the reference's
// break-on-perfect-match condition.  errors <= 127 and every start fits
// well inside 48 bits, so no legitimate key collides with no_match.
constexpr std::uint64_t no_match = ~std::uint64_t{0};

inline std::size_t errors_of(std::uint64_t key)
{
    return static_cast<std::size_t>(key >> 48);
}

/// The sliding scan.  Semantics are pinned to the scalar reference
/// loop: clamp both bounds to the last fitting start, return the first
/// position with the fewest errors, stop scanning on a zero-error
/// match.  2-word patterns run stripe-major over the interior words in
/// chunks (so the zero-error break still skips the remainder of a long
/// span), with the ragged edges of [from, to] covered position-major.
/// Both scans are the active SIMD table's (util/simd.h): the same
/// source everywhere, on hardware popcnt when a lane backend is up.
std::optional<Pattern_match> scan_packed(const Packed_bits& haystack,
                                         const Packed_pattern& pattern,
                                         std::size_t from,
                                         std::size_t to,
                                         std::size_t max_errors)
{
    const std::size_t last_start = haystack.bit_count() - pattern.length();
    from = std::min(from, last_start);
    to = std::min(to, last_start);
    if (from > to)
        return std::nullopt;

    const std::uint64_t* words = haystack.words();
    std::uint64_t best_key = no_match;
    const simd::detail::Kernel_table& kernels = simd::detail::active_kernels();
    const auto scan_starts = [&](std::size_t first, std::size_t last) {
        kernels.pilot_scan_starts(words, pattern.shifted(0), pattern.mask(0),
                                  pattern.stride(), first, last, max_errors, &best_key);
    };

    // Word w is interior when all 64 of its starts lie inside [from, to].
    const std::size_t w_lo = (from + 63) >> 6;
    const bool interior =
        pattern.stride() == 2 && to >= 63 && ((to - 63) >> 6) >= w_lo;
    if (!interior) {
        scan_starts(from, to);
    } else {
        const std::size_t w_hi = (to - 63) >> 6;
        if (w_lo * 64 > from)
            scan_starts(from, w_lo * 64 - 1);
        constexpr std::size_t chunk_words = 16; // 1024 starts per zero check
        for (std::size_t w = w_lo; w <= w_hi && errors_of(best_key) != 0;
             w += chunk_words)
            kernels.pilot_scan_striped(words, pattern.shifted(0), pattern.mask(0), w,
                                       std::min(w_hi, w + chunk_words - 1), max_errors,
                                       &best_key);
        if (errors_of(best_key) != 0 && (w_hi + 1) * 64 <= to)
            scan_starts((w_hi + 1) * 64, to);
    }

    if (best_key == no_match)
        return std::nullopt;
    return Pattern_match{best_key & ((std::uint64_t{1} << 48) - 1),
                         errors_of(best_key)};
}

void tally_outcome(const std::optional<Pattern_match>& best)
{
    if (best) {
        obs::count(obs::Counter::pilot_hits);
        obs::count(obs::Counter::pilot_hit_offset_sum, best->position);
        obs::count(obs::Counter::pilot_hit_error_sum, best->errors);
    } else {
        obs::count(obs::Counter::pilot_misses);
    }
}

} // namespace

std::optional<Pattern_match> find_pattern(std::span<const std::uint8_t> bits,
                                          std::span<const std::uint8_t> pattern,
                                          std::size_t from,
                                          std::size_t to,
                                          std::size_t max_errors)
{
    if (pattern.empty() || bits.size() < pattern.size()) {
        obs::count(obs::Counter::pilot_degenerate);
        return std::nullopt;
    }
    const obs::Stage_timer timer{obs::Stage::pilot_search};
    obs::count(obs::Counter::pilot_searches);
    const Packed_bits haystack{bits};
    // The two protocol patterns are pre-packed once per process; packing
    // an arbitrary pattern per call is a cold path (tests, tooling).
    const std::optional<Pattern_match> best = [&] {
        if (pattern.data() == pilot_sequence().data())
            return scan_packed(haystack, pilot_packed(), from, to, max_errors);
        if (pattern.data() == pilot_mirrored().data())
            return scan_packed(haystack, pilot_mirrored_packed(), from, to,
                               max_errors);
        return scan_packed(haystack, Packed_pattern{pattern}, from, to, max_errors);
    }();
    tally_outcome(best);
    return best;
}

std::optional<Pattern_match> find_pattern(const Packed_bits& haystack,
                                          const Packed_pattern& pattern,
                                          std::size_t from,
                                          std::size_t to,
                                          std::size_t max_errors)
{
    if (pattern.length() == 0 || haystack.bit_count() < pattern.length()) {
        obs::count(obs::Counter::pilot_degenerate);
        return std::nullopt;
    }
    const obs::Stage_timer timer{obs::Stage::pilot_search};
    obs::count(obs::Counter::pilot_searches);
    const std::optional<Pattern_match> best =
        scan_packed(haystack, pattern, from, to, max_errors);
    tally_outcome(best);
    return best;
}

std::optional<Pattern_match> find_pilot(std::span<const std::uint8_t> bits,
                                        std::size_t max_errors)
{
    if (bits.size() < pilot_length)
        return std::nullopt;
    return find_pattern(bits, pilot_sequence(), 0, bits.size() - pilot_length, max_errors);
}

} // namespace anc::phy
