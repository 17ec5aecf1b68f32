// End-to-end FEC pipeline and the throughput-accounting redundancy model.

#pragma once

#include <cstddef>
#include <span>

#include "fec/interleaver.h"
#include "util/bits.h"

namespace anc::fec {

/// Hamming(7,4) + block interleaving, the protection applied to ANC
/// payloads in the examples and the FEC ablation bench.
class Fec_codec {
public:
    /// `interleave_rows` codewords are interleaved together; 0 disables
    /// interleaving.
    explicit Fec_codec(std::size_t interleave_rows = 8);

    Bits encode(std::span<const std::uint8_t> data) const;

    /// Decode; `data_bits` is the original (pre-padding) data length so the
    /// pad added by encode() can be stripped.
    Bits decode(std::span<const std::uint8_t> coded, std::size_t data_bits) const;

private:
    std::size_t interleave_rows_;
};

/// Redundancy overhead the throughput accounting charges a scheme that
/// delivers packets at residual bit-error rate `ber` (§11.2).  The paper
/// reports 4% BER requiring "8% of extra redundancy", i.e. overhead of
/// about twice the BER; we use exactly that linear rule, capped at 1.
/// Returned as a fraction of the payload (0.08 means 8% extra bits).
double redundancy_overhead(double ber);

/// Multiplicative throughput factor implied by the overhead:
/// useful_fraction = 1 / (1 + overhead).
double throughput_factor(double ber);

} // namespace anc::fec
