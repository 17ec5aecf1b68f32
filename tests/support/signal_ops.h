// Signal helpers the test suites share.

#pragma once

#include <cstddef>

#include "dsp/sample.h"

namespace anc::test {

/// acc[offset + i] += signal[i], zero-extending acc as needed: places a
/// burst at an offset in a stream, or adds a second signal onto a mix.
inline void accumulate(dsp::Signal& acc, dsp::Signal_view signal, std::size_t offset)
{
    if (acc.size() < offset + signal.size())
        acc.resize(offset + signal.size(), dsp::Sample{0.0, 0.0});
    for (std::size_t i = 0; i < signal.size(); ++i)
        acc[offset + i] += signal[i];
}

} // namespace anc::test
