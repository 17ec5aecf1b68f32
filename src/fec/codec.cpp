#include "fec/codec.h"

#include <algorithm>

#include "fec/hamming.h"
#include "util/obs.h"

namespace anc::fec {

Fec_codec::Fec_codec(std::size_t interleave_rows)
    : interleave_rows_{interleave_rows}
{
}

Bits Fec_codec::encode(std::span<const std::uint8_t> data) const
{
    Bits coded = hamming74_encode(data);
    if (interleave_rows_ > 1) {
        const Block_interleaver interleaver{interleave_rows_, 7};
        coded = interleaver.interleave(coded);
    }
    return coded;
}

Bits Fec_codec::decode(std::span<const std::uint8_t> coded, std::size_t data_bits) const
{
    const obs::Stage_timer timer{obs::Stage::fec_decode};
    Bits received{coded.begin(), coded.end()};
    if (interleave_rows_ > 1) {
        const Block_interleaver interleaver{interleave_rows_, 7};
        received = interleaver.deinterleave(received);
    }
    // Tolerate truncated input by dropping an incomplete trailing codeword.
    received.resize(received.size() - received.size() % 7);
    Bits data = hamming74_decode(received);
    data.resize(std::min(data.size(), data_bits));
    return data;
}

double redundancy_overhead(double ber)
{
    return std::clamp(2.0 * ber, 0.0, 1.0);
}

double throughput_factor(double ber)
{
    return 1.0 / (1.0 + redundancy_overhead(ber));
}

} // namespace anc::fec
