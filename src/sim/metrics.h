// Metrics for the evaluation runs (§11.2).
//
//   Network throughput — end-to-end payload bits per symbol of airtime,
//   charged with the extra error-correction redundancy implied by the
//   scheme's residual BER ("ANC has a higher bit error rate ... and thus
//   needs extra redundancy ... We account for this overhead in our
//   throughput computation").
//
//   Gain — ratio of ANC throughput to a baseline's throughput for the
//   same workload on the same topology (engine::paired_gain pairs them).
//
//   BER — fraction of erroneous payload bits in a delivered packet.

#pragma once

#include <cstddef>

#include "util/stats.h"

namespace anc::sim {

struct Run_metrics {
    std::size_t packets_attempted = 0;
    std::size_t packets_delivered = 0;
    std::size_t payload_bits_delivered = 0;
    double airtime_symbols = 0.0;
    Cdf packet_ber; // one sample per delivered packet
    Cdf overlaps;   // one sample per collision (ANC runs only)

    /// Fold another run's counters and samples into this one (used by
    /// the sweep engine to pool repetitions of a grid point).
    void merge(const Run_metrics& other);

    double mean_ber() const;
    double delivery_rate() const;
    /// Payload bits per symbol, charged with redundancy_overhead(mean BER).
    double throughput() const;
    /// Uncharged bits per symbol.
    double raw_throughput() const;
    double mean_overlap() const;
};

} // namespace anc::sim
