// Packet and interference detection (§7.1).
//
// Packet presence: windowed mean energy at least `energy_threshold_db`
// above the receiver noise floor (paper default: 20 dB).
//
// Interference: MSK has a constant envelope, so the energy of a clean MSK
// packet varies only through noise.  When two MSK signals overlap, |y|^2
// swings between (A+B)^2 and (A-B)^2 — a variance of order 16 A^2 B^2
// (paper §7.1).  The paper states its threshold as "variance greater than
// 20 dB", which is not scale-free; we implement the same physical idea as
// an *excess-variance ratio*: measured var(|y|^2) divided by the variance
// a clean constant-envelope signal would show at the same power over the
// same noise floor (2*mean*sigma^2 + sigma^4).  Clean packet -> ratio ~ 1
// (0 dB); collision -> ratio grows with SNR.  Default threshold: 10 dB.
// bench/ablation_detector sweeps the threshold.

#pragma once

#include <cstddef>
#include <optional>

#include "dsp/sample.h"

namespace anc::phy {

struct Packet_bounds {
    std::size_t begin = 0; // first sample of the packet
    std::size_t end = 0;   // one past the last sample

    std::size_t size() const { return end - begin; }
};

/// Energy detector: finds the contiguous run of samples whose windowed
/// energy exceeds the threshold above the noise floor.
class Packet_detector {
public:
    struct Config {
        /// Detection threshold above the noise floor.  The paper quotes
        /// 20 dB as "typical"; we default slightly lower so that links
        /// with sub-unity gain still detect packets at an SNR of exactly
        /// 20 dB (the bottom of the operating range).
        double energy_threshold_db = 15.0;
        std::size_t window = 16;
    };

    explicit Packet_detector(double noise_power)
        : Packet_detector{noise_power, Config{}}
    {
    }
    Packet_detector(double noise_power, Config config);

    /// Bounds of the first packet in the stream, or nothing if the stream
    /// never rises above the detection threshold.
    std::optional<Packet_bounds> detect(dsp::Signal_view signal) const;

private:
    double noise_power_;
    Config config_;
};

struct Interference_report {
    bool interfered = false;
    // Sample range (relative to the analyzed span) where windows exceeded
    // the threshold; meaningful only when interfered.
    std::size_t overlap_begin = 0;
    std::size_t overlap_end = 0;
    double peak_ratio_db = 0.0; // largest excess-variance ratio observed
};

/// Collision detector via the excess-variance ratio.
class Interference_detector {
public:
    struct Config {
        double variance_threshold_db = 10.0;
        std::size_t window = 64;
        // A collision must sustain the ratio for at least this many
        // consecutive windows: isolated spikes (packet edges) don't count.
        std::size_t min_run = 16;
    };

    explicit Interference_detector(double noise_power)
        : Interference_detector{noise_power, Config{}}
    {
    }
    Interference_detector(double noise_power, Config config);

    Interference_report analyze(dsp::Signal_view packet) const;

private:
    double noise_power_;
    Config config_;
};

} // namespace anc::phy
