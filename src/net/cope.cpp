#include "net/cope.h"

#include <algorithm>
#include <functional>

namespace anc::net {

namespace {

/// Appends `length` bits of x XOR y, each operand cut or zero-padded to
/// `length`: a copy of x, then one XOR of y over the common prefix.
void append_xor(Bits& out, std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
                std::size_t length)
{
    const std::size_t start = out.size();
    out.reserve(start + length);
    out.insert(out.end(), x.begin(), x.begin() + std::min(length, x.size()));
    out.resize(start + length);
    std::transform(y.begin(), y.begin() + std::min(length, y.size()), out.begin() + start,
                   out.begin() + start, std::bit_xor<>{});
}

} // namespace

Bits cope_encode(const Packet& a, const Packet& b)
{
    const Bits header_a = phy::encode_header(header_for(a));
    const Bits header_b = phy::encode_header(header_for(b));
    const std::size_t body = std::max(a.payload.size(), b.payload.size());

    Bits out;
    out.reserve(2 * phy::header_length + body);
    out.insert(out.end(), header_a.begin(), header_a.end());
    out.insert(out.end(), header_b.begin(), header_b.end());
    append_xor(out, a.payload, b.payload, body);
    return out;
}

std::optional<Cope_coded> cope_parse(std::span<const std::uint8_t> payload)
{
    if (payload.size() < 2 * phy::header_length)
        return std::nullopt;
    const auto first = phy::decode_header(payload.first(phy::header_length));
    const auto second =
        phy::decode_header(payload.subspan(phy::header_length, phy::header_length));
    if (!first || !second)
        return std::nullopt;

    const std::size_t body = payload.size() - 2 * phy::header_length;
    if (body != std::max<std::size_t>(first->payload_bits, second->payload_bits))
        return std::nullopt;

    Cope_coded coded;
    coded.first = *first;
    coded.second = *second;
    const auto xored = payload.subspan(2 * phy::header_length);
    coded.xored.assign(xored.begin(), xored.end());
    return coded;
}

namespace {

bool same_identity(const phy::Frame_header& x, const phy::Frame_header& y)
{
    return x.src == y.src && x.dst == y.dst && x.seq == y.seq;
}

} // namespace

std::optional<Packet> cope_decode(const Cope_coded& coded,
                                  const phy::Frame_header& known_header,
                                  std::span<const std::uint8_t> known_payload)
{
    const phy::Frame_header* wanted = nullptr;
    if (same_identity(known_header, coded.first))
        wanted = &coded.second;
    else if (same_identity(known_header, coded.second))
        wanted = &coded.first;
    else
        return std::nullopt;

    Packet packet;
    packet.src = wanted->src;
    packet.dst = wanted->dst;
    packet.seq = wanted->seq;
    append_xor(packet.payload, coded.xored, known_payload, wanted->payload_bits);
    return packet;
}

} // namespace anc::net
