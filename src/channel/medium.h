// Broadcast wireless medium.
//
// This is the core hardware substitution of the reproduction: in place
// of the paper's software-radio front-ends and the air, a Medium holds a link
// channel for every ordered node pair and computes, for each receiver,
// the *sum* of the channel-distorted signals of every node transmitting
// in the same round, plus receiver AWGN.  "Collision of two packets means
// that the channel adds their physical signals after applying
// attenuations and time shifts" (§1) — this class is that sentence.

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <optional>
#include <vector>

#include "channel/awgn.h"
#include "channel/link.h"
#include "dsp/sample.h"
#include "util/rng.h"

namespace anc::chan {

using Node_id = std::uint32_t;

/// One node's transmission within a round: a *view* of the signal on the
/// air plus the symbol offset (MAC jitter, §7.2) at which it starts
/// relative to the round origin.  The view keeps rounds zero-copy — the
/// transmitter's buffer (typically a dsp::Workspace lease) must stay
/// alive until every receive_into() of the round has run, which every caller
/// naturally satisfies because rounds are synchronous.
struct Transmission {
    Node_id from = 0;
    dsp::Signal_view signal;
    std::size_t start = 0;
};

class Medium {
public:
    /// `noise_power` is the receiver noise floor (same at every node, as
    /// assumed in §8); `rng` seeds the per-receive noise streams.
    /// `profile` selects the receiver noise of every receive_into(): `exact`
    /// is the historical bit-identical stream, `fast` the
    /// corridor-validated counter-based noise (dsp/math_profile.h).  The
    /// link rotations are the same under both.
    Medium(double noise_power, Pcg32 rng,
           dsp::Math_profile profile = dsp::Math_profile::exact);

    /// Define the channel of the ordered pair (from -> to).  Pairs without
    /// a link are out of radio range: the receiver hears nothing from that
    /// sender.
    void set_link(Node_id from, Node_id to, Link_params params);

    bool has_link(Node_id from, Node_id to) const;

    /// The link's channel; throws if absent.
    const Link_channel& link(Node_id from, Node_id to) const;

    /// Per-link AGC detection threshold for receivers snooping
    /// (from -> to): the link's Link_params::detection_threshold_db, or
    /// empty when the link has none (or does not exist) — "use the
    /// standard carrier-sense threshold".
    std::optional<double> detection_threshold_db(Node_id from, Node_id to) const;

    /// Install or clear the per-link threshold on an existing link
    /// (throws std::out_of_range when absent).  Keeps the link's other
    /// parameters — including its random phase — untouched.
    void set_detection_threshold_db(Node_id from, Node_id to,
                                    std::optional<double> threshold_db);

    /// What `receiver` hears during a round in which `transmissions` are
    /// on the air, into a caller-owned buffer (cleared first; typically a
    /// dsp::Workspace lease): sum over in-range senders of
    /// link(sender, receiver) applied to the sender's signal at its start
    /// offset, plus AWGN over the whole span and `trailing_noise` samples
    /// past it.  A half-duplex node cannot hear a round it transmits in;
    /// passing its own id among the senders is allowed (its own signal is
    /// simply skipped, since a radio does not receive its own
    /// transmission at baseband here).  `out` must not alias any
    /// transmission's backing buffer — it is cleared before the signals
    /// are read.
    void receive_into(Node_id receiver,
                      std::span<const Transmission> transmissions,
                      std::size_t trailing_noise,
                      dsp::Signal& out);

    double noise_power() const { return noise_power_; }
    dsp::Math_profile math_profile() const { return profile_; }

    /// The fading epoch applied to every rayleigh_block link during
    /// receive_into(): a logical packet/exchange counter the simulation
    /// advances (once per exchange in the sim/ runners), so successive
    /// packets see independent fades while schemes replaying the same
    /// epoch sequence see identical ones.  No effect on fixed links.
    void set_fading_epoch(std::uint64_t epoch) { fading_epoch_ = epoch; }
    std::uint64_t fading_epoch() const { return fading_epoch_; }

    /// Channel-state introspection: append |h_{epoch,block}| for every
    /// coherence block a transmission of `samples` samples over
    /// (from -> to) spans at the medium's *current* fading epoch.  Pure
    /// (block gains are counter-based), so recording consumes no RNG
    /// state and cannot perturb results.  No-op for fixed-gain or absent
    /// links.
    void append_fade_magnitudes(Node_id from, Node_id to, std::size_t samples,
                                std::vector<double>& out) const;

private:
    std::map<std::pair<Node_id, Node_id>, Link_channel> links_;
    double noise_power_;
    Pcg32 rng_;
    dsp::Math_profile profile_;
    std::uint64_t fading_epoch_ = 0;
};

} // namespace anc::chan
