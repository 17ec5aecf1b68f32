// Elementary signal operations shared by the channel and the decoders.
//
// Two API layers.  The *kernels* (`*_in_place`, `*_into`, `accumulate`)
// mutate caller-owned buffers and never allocate once the destination has
// capacity — they are written as tight index loops over the contiguous
// Sample data so the compiler auto-vectorizes them.  The value-returning
// functions are thin wrappers that allocate a fresh Signal and delegate
// to the kernels, so both layers share one arithmetic implementation and
// stay bit-identical (tests/dsp/ops_inplace_test.cpp locks this in).

#pragma once

#include <cstddef>
#include <span>

#include "dsp/sample.h"

namespace anc::dsp {

// ------------------------------------------------------------- kernels

/// signal *= scale, element-wise.
void scale_in_place(Signal& signal, double scale);

/// signal[i] *= e^{i phase} (a channel phase shift).
void rotate_in_place(Signal& signal, double phase);

/// signal[i] = conj(signal[i]).
void conjugate_in_place(Signal& signal);

/// out = the samples of `signal` in reverse order, each conjugated (the
/// backward-decoding transform; see time_reversed).  `out` must not alias
/// `signal`.
void time_reverse_into(Signal_view signal, Signal& out);

/// out = signal[begin, end) (clamped to bounds).  No alias allowed.
void slice_into(Signal_view signal, std::size_t begin, std::size_t end, Signal& out);

/// out = copy of signal.  No alias allowed.
void copy_into(Signal_view signal, Signal& out);

/// acc[i] += signal[i], zero-extending acc to signal's length first.
void add_into(Signal& acc, Signal_view signal);

/// In-place accumulate: acc[offset + i] += signal[i], growing acc if
/// needed.  Used by the medium to mix any number of transmitters.
void accumulate(Signal& acc, Signal_view signal, std::size_t offset);

/// out[i] = amplitude · e^{i·phases[i]} — the polar fill behind the
/// DQPSK modulator: std::polar per element, byte-identical to the
/// historical per-sample loop.
void polar_into(std::span<const double> phases, double amplitude, Signal& out);

/// Scale `signal` so its mean power becomes `target_power`, in one
/// measure-then-scale pass over the buffer (no intermediate copy).  A
/// zero/empty signal is left unchanged.  Returns the mean power measured
/// *before* scaling.
double normalize_power_in_place(Signal& signal, double target_power);

// ------------------------------------------------- value-returning API

/// signal * scale (amplitude scaling).
Signal scaled(Signal_view signal, double scale);

/// signal rotated by e^{i phase} (a channel phase shift).
Signal rotated(Signal_view signal, double phase);

/// `count` zero samples prepended (an integer whole-symbol delay).
Signal delayed(Signal_view signal, std::size_t count);

/// Sample-wise sum; the shorter signal is zero-extended.  This is what the
/// wireless medium does to concurrent transmissions: it *adds* them.
Signal added(Signal_view a, Signal_view b);

/// Copy of the sample order reversed.  Reversing negates every MSK phase
/// difference, which is the basis of backward decoding (§7.4).
Signal reversed(Signal_view signal);

/// Sample-wise complex conjugate.
Signal conjugated(Signal_view signal);

/// Reverse the sample order *and* conjugate.  The resulting stream has
/// exactly the phase differences of the original read backwards — i.e. a
/// frame seen through this transform demodulates to its forward bits in
/// reverse order, with its mirrored trailing pilot/header appearing as a
/// normal leading pilot/header.  This is what makes Bob's backward
/// decoding (§7.4) run through the *same* machinery as Alice's forward
/// decoding.
Signal time_reversed(Signal_view signal);

/// Sub-range [begin, end) as a fresh signal (clamped to bounds).
Signal slice(Signal_view signal, std::size_t begin, std::size_t end);

/// The same sub-range as a zero-copy view (clamped to bounds).
Signal_view slice_view(Signal_view signal, std::size_t begin, std::size_t end);

/// Mean power of the signal (alias of mean |y|^2).
double power(Signal_view signal);

/// Scale so the mean power becomes `target_power`.  A zero signal is
/// returned unchanged.  This is the relay's re-amplification (§7.5): the
/// amplification factor is chosen so the transmit power equals P.
Signal normalized_to_power(Signal_view signal, double target_power);

} // namespace anc::dsp
