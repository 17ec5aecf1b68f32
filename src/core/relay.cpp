#include "core/relay.h"

#include "dsp/ops.h"

namespace anc {

bool amplify_and_forward_into(dsp::Signal_view received,
                              double noise_power,
                              double target_power,
                              dsp::Signal& out,
                              phy::Packet_detector::Config detector)
{
    out.clear();
    const phy::Packet_detector packet_detector{noise_power, detector};
    const auto bounds = packet_detector.detect(received);
    if (!bounds)
        return false;
    dsp::slice_into(received, bounds->begin, bounds->end, out);
    dsp::normalize_power_in_place(out, target_power);
    return true;
}

} // namespace anc
