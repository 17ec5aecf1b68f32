// Pilot sequence and tolerant bit-pattern search (§7.2).
//
// Every frame starts with a known 64-bit pseudo-random pilot and ends with
// the mirrored pilot.  A receiver locates a frame inside a sample stream
// by demodulating the interference-free part and sliding the pilot over
// the decoded bits.  The search tolerates a few bit errors, since the
// clean region is still subject to noise.
//
// The scan runs in the bit domain (PERF.md "Bit-domain pilot search"):
// the haystack's byte-per-bit Bits are packed LSB-first into 64-bit
// words once (workspace-leased scratch), the pattern is pre-packed into
// its 64 possible word alignments, and each candidate position costs a
// couple of XOR + popcount word operations instead of a byte compare
// per pattern bit.  The packed scan is a pure speedup: position, error
// count, clamping, and tie-breaks (earliest minimum, stop at zero) are
// exactly those of the historical byte loop, which survives as
// find_pattern_scalar — the validation reference.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/workspace.h"
#include "util/bits.h"

namespace anc::phy {

inline constexpr std::size_t pilot_length = 64;

/// The fixed 64-bit pseudo-random pilot (identical at all nodes).
const Bits& pilot_sequence();

/// The pilot reversed (what a frame carries at its tail).
const Bits& pilot_mirrored();

struct Pattern_match {
    std::size_t position = 0; // start index of the match in the haystack
    std::size_t errors = 0;   // Hamming distance at that position
};

/// A haystack packed LSB-first into 64-bit words held in workspace-leased
/// scratch: bit i of word i/64 is bits[i] & 1.  Build one per frame and
/// reuse it across every pattern search over the same bits (the receiver
/// packs its decoded stream once for the unknown-pilot loop and the
/// mirrored-tail recovery).
class Packed_bits {
public:
    explicit Packed_bits(std::span<const std::uint8_t> bits);

    std::size_t bit_count() const { return bit_count_; }

    /// The packed words, padded with enough zero words that a scan may
    /// read a full pattern stride at any valid start position.
    const std::uint64_t* words() const { return lease_->data(); }

private:
    dsp::Words_lease lease_;
    std::size_t bit_count_;
};

/// A pattern pre-packed into all 64 word alignments: copy s holds the
/// pattern's bits shifted up by s within a word stride, next to the mask
/// selecting them.  At start position p the scan XORs the haystack words
/// from p/64 against copy p%64 and popcounts under the mask — the 64
/// shifted copies turn every alignment into whole-word operations.
class Packed_pattern {
public:
    explicit Packed_pattern(std::span<const std::uint8_t> pattern);

    std::size_t length() const { return length_; }

    /// Words per shifted copy: ceil((63 + length) / 64).
    std::size_t stride() const { return stride_; }

    const std::uint64_t* shifted(std::size_t shift) const
    {
        return shifted_.data() + shift * stride_;
    }
    const std::uint64_t* mask(std::size_t shift) const
    {
        return masks_.data() + shift * stride_;
    }

private:
    std::size_t length_;
    std::size_t stride_;
    std::vector<std::uint64_t> shifted_; // 64 copies, stride_ words each
    std::vector<std::uint64_t> masks_;
};

/// The pilot / mirrored pilot pre-packed once per process.
const Packed_pattern& pilot_packed();
const Packed_pattern& pilot_mirrored_packed();

/// Best (fewest-errors) alignment of `pattern` inside `bits`, scanning
/// start positions in [from, to]; `to` is clamped so the pattern fits.
/// Returns nothing if the pattern cannot fit or no alignment has at most
/// `max_errors` mismatches.  Ties resolve to the earliest position.
std::optional<Pattern_match> find_pattern(std::span<const std::uint8_t> bits,
                                          std::span<const std::uint8_t> pattern,
                                          std::size_t from,
                                          std::size_t to,
                                          std::size_t max_errors);

/// The same search over a pre-packed haystack and pattern — what callers
/// issuing several searches against the same bits use to pack only once.
std::optional<Pattern_match> find_pattern(const Packed_bits& haystack,
                                          const Packed_pattern& pattern,
                                          std::size_t from,
                                          std::size_t to,
                                          std::size_t max_errors);

/// The historical byte-per-bit scan, uninstrumented: the reference the
/// property tests compare the packed scan against.  Not used on any hot
/// path.
std::optional<Pattern_match> find_pattern_scalar(std::span<const std::uint8_t> bits,
                                                 std::span<const std::uint8_t> pattern,
                                                 std::size_t from,
                                                 std::size_t to,
                                                 std::size_t max_errors);

/// Convenience: search the pilot across the whole sequence.
std::optional<Pattern_match> find_pilot(std::span<const std::uint8_t> bits,
                                        std::size_t max_errors = 6);

} // namespace anc::phy
