#include "channel/medium.h"

#include <cmath>

#include "util/obs.h"

namespace anc::chan {

Medium::Medium(double noise_power, Pcg32 rng, dsp::Math_profile profile)
    : noise_power_{noise_power}, rng_{rng}, profile_{profile}
{
}

void Medium::set_link(Node_id from, Node_id to, Link_params params)
{
    links_.insert_or_assign({from, to}, Link_channel{params});
}

std::optional<double> Medium::detection_threshold_db(Node_id from, Node_id to) const
{
    obs::count(obs::Counter::agc_lookups);
    const auto it = links_.find({from, to});
    if (it == links_.end())
        return std::nullopt;
    if (it->second.params().detection_threshold_db)
        obs::count(obs::Counter::agc_overrides);
    return it->second.params().detection_threshold_db;
}

void Medium::append_fade_magnitudes(Node_id from, Node_id to, std::size_t samples,
                                    std::vector<double>& out) const
{
    const auto it = links_.find({from, to});
    if (it == links_.end() || samples == 0)
        return;
    const Link_channel& channel = it->second;
    if (channel.params().gain_model != Gain_model::rayleigh_block)
        return;
    const std::size_t block_len = channel.params().coherence_block == 0
                                      ? samples
                                      : channel.params().coherence_block;
    const std::size_t blocks = (samples + block_len - 1) / block_len;
    for (std::size_t block = 0; block < blocks; ++block)
        out.push_back(std::abs(channel.block_gain(fading_epoch_, block)));
}

void Medium::receive_into(Node_id receiver,
                          std::span<const Transmission> transmissions,
                          std::size_t trailing_noise,
                          dsp::Signal& out)
{
    const obs::Stage_timer timer{obs::Stage::channel};
    out.clear();
    for (const Transmission& tx : transmissions) {
        if (tx.from == receiver)
            continue; // half-duplex: you do not hear yourself
        const auto it = links_.find({tx.from, receiver});
        if (it == links_.end())
            continue; // out of radio range
        it->second.apply_onto(tx.signal, tx.start, out, fading_epoch_);
    }
    // Value-initializing resize: zero bits, same as Sample{0.0, 0.0},
    // minus the slow fill-construct path (see Link_channel::apply_onto).
    out.resize(out.size() + trailing_noise);
    Awgn noise{noise_power_, rng_.fork(static_cast<std::uint64_t>(receiver) + 1),
               profile_};
    noise.add_in_place(out);
}

} // namespace anc::chan
