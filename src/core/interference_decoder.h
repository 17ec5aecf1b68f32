// Decoding the unknown signal out of a two-signal collision (§6.3-6.4).
//
// For every consecutive pair of received samples, Lemma 6.1 yields two
// candidate phases per sample, hence four candidate phase-difference pairs
// (delta theta, delta phi) (Eq. 7).  The receiver knows the phase
// differences its own (or an overheard) packet must have produced — MSK
// maps bits to +-pi/2 steps — so it picks the candidate whose delta theta
// best matches the known step (Eq. 8) and reads the unknown signal's bit
// off the matching delta phi: bit = (delta phi >= 0).
//
// Beyond the end of the known signal the collision is over and the
// decoder falls back to standard differential demodulation — that region
// is the unknown packet's interference-free tail (§7.2).
//
// Both packets are MSK, as in the paper's evaluation (§11).  decode_into
// is the one entry point onto the Eq. 7-8 core; the ANC receiver calls it
// once per collision.

#pragma once

#include <span>
#include <vector>

#include "dsp/math_profile.h"
#include "dsp/sample.h"
#include "util/bits.h"

namespace anc {

class Interference_decoder {
public:
    /// The math profile selects the Eq. 7–8 arg/atan2 kernels: `exact`
    /// is the historical libm path, `fast` the bounded-error fastmath
    /// one (see dsp/math_profile.h; the ANC receiver passes its own
    /// profile down).
    explicit Interference_decoder(
        dsp::Math_profile profile = dsp::Math_profile::exact)
        : profile_{profile}
    {
    }

    /// `samples`: the received stream, aligned so samples[k] carries the
    /// known signal's k-th sample (alignment is the pilot matcher's job).
    /// `known_diffs`: the known signal's per-transition phase differences
    /// (length = number of known frame bits).  Transitions at or past
    /// known_diffs.size() are demodulated as a single signal.
    /// `a`, `b`: amplitudes of the known and unknown signal.
    /// The outputs are caller-owned buffers (cleared first; typically
    /// dsp::Workspace leases), one entry per sample transition:
    /// - `bits`: the unknown signal's hard decisions.  Positions where
    ///   the unknown signal had not yet started carry noise decisions;
    ///   the caller locates the packet via its pilot.
    /// - `phi_differences`: the estimated delta phi (soft output).
    /// - `match_errors`: |delta theta_chosen - delta theta_known| within
    ///   the known signal's extent; diagnostics for tests and examples.
    void decode_into(dsp::Signal_view samples,
                     std::span<const double> known_diffs,
                     double a,
                     double b,
                     Bits& bits,
                     std::vector<double>& phi_differences,
                     std::vector<double>& match_errors) const;

private:
    dsp::Math_profile profile_ = dsp::Math_profile::exact;
};

} // namespace anc
