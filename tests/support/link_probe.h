// Reads a link of a Medium the way a receiver does: through receive_into.

#pragma once

#include <cstddef>

#include "channel/medium.h"
#include "dsp/sample.h"

namespace anc::test {

/// What `to` hears when `from` sends `samples` unit samples from sample 0
/// through a noiseless `medium`.  Sample n is the link's rotor at n (times
/// the fade of n's coherence block on a faded link), so sample 0 of a
/// fixed link is polar(gain, phase).  Empty when there is no link.
inline dsp::Signal unit_response(chan::Medium& medium, chan::Node_id from, chan::Node_id to,
                                 std::size_t samples = 1)
{
    const dsp::Signal units(samples, dsp::Sample{1.0, 0.0});
    const chan::Transmission txs[] = {{from, units, 0}};
    dsp::Signal heard;
    medium.receive_into(to, txs, 0, heard);
    return heard;
}

} // namespace anc::test
