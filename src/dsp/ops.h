// Elementary signal operations shared by the channel and the decoders.
//
// Every operation writes into a caller-owned buffer (`*_in_place`,
// `*_into`, `accumulate`) or returns a view or a scalar, so none
// allocates once the destination has capacity.  The loops run over the
// contiguous Sample data as interleaved re/im doubles, which the
// compiler auto-vectorizes.

#pragma once

#include <cstddef>

#include "dsp/sample.h"

namespace anc::dsp {

/// signal *= scale, element-wise.
void scale_in_place(Signal& signal, double scale);

/// out = the samples of `signal` in reverse order, each conjugated.  The
/// resulting stream has exactly the phase differences of the original
/// read backwards: a frame seen through this transform demodulates to its
/// forward bits in reverse order, with its mirrored trailing pilot/header
/// appearing as a normal leading pilot/header.  This is what makes Bob's
/// backward decoding (§7.4) run through the *same* machinery as Alice's
/// forward decoding.  `out` must not alias `signal`.
void time_reverse_into(Signal_view signal, Signal& out);

/// out = signal[begin, end) (clamped to bounds).  No alias allowed.
void slice_into(Signal_view signal, std::size_t begin, std::size_t end, Signal& out);

/// In-place accumulate: acc[offset + i] += signal[i], zero-extending acc
/// if needed.  This is what the wireless medium does to concurrent
/// transmissions: it *adds* them.
void accumulate(Signal& acc, Signal_view signal, std::size_t offset);

/// Scale `signal` so its mean power becomes `target_power`, in one
/// measure-then-scale pass over the buffer (no intermediate copy).  A
/// zero/empty signal is left unchanged.  Returns the mean power measured
/// *before* scaling.  This is the relay's re-amplification (§7.5): the
/// amplification factor is chosen so the transmit power equals P.
double normalize_power_in_place(Signal& signal, double target_power);

/// Sub-range [begin, end) as a zero-copy view (clamped to bounds).
Signal_view slice_view(Signal_view signal, std::size_t begin, std::size_t end);

/// Mean power of the signal (alias of mean |y|^2).
double power(Signal_view signal);

} // namespace anc::dsp
