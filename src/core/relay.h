// The relay's amplify-and-forward (§7.5, Appendix C).
//
// §7.5 lets a router that hears a collision decode it (it knows one of
// the packets, as N2 in the chain), forward it (the two packets cross it
// in opposite directions, as the Alice-Bob and X relays) or drop it.
// Each topology fixes that choice, so it lives in the round schedule:
// sim/crossing.cpp forwards (relay_broadcast in sim/rounds.cpp runs the
// functions below), sim/chain.cpp decodes through the ANC receiver.
//
// The re-amplification scales the received window so its mean power is P
// (the amplification factor A = sqrt(P / (P h1^2 + P h2^2 + sigma^2)) of
// Appendix C, realized by measuring the actual received power).  The
// router's own receiver noise is inside the window and gets amplified
// with the signals — the source of ANC's low-SNR penalty (§8) and of the
// higher Alice-Bob BER versus the chain (§11.6).

#pragma once

#include "dsp/sample.h"
#include "phy/detector.h"

namespace anc {

/// Amplify-and-forward: trim the received stream to its active region
/// (energy detection against the router's noise floor) and scale the mean
/// power there to `target_power`, writing the signal to broadcast into a
/// caller-owned buffer (cleared first; typically a dsp::Workspace lease).
/// Returns false (leaving `out` empty) when no packet is detected.
bool amplify_and_forward_into(dsp::Signal_view received,
                              double noise_power,
                              double target_power,
                              dsp::Signal& out,
                              phy::Packet_detector::Config detector = {});

} // namespace anc
