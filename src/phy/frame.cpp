#include "phy/frame.h"

#include "phy/pilot.h"
#include "util/crc.h"
#include "util/obs.h"

namespace anc::phy {

Bits build_frame(const Frame_header& header, std::span<const std::uint8_t> payload)
{
    const Bits header_bits = encode_header(header);
    Bits crc_bits;
    append_uint(crc_bits, crc32(payload), static_cast<int>(crc_length));

    Bits frame;
    frame.reserve(frame_length(payload.size()));
    const Bits& pilot = pilot_sequence();
    frame.insert(frame.end(), pilot.begin(), pilot.end());
    frame.insert(frame.end(), header_bits.begin(), header_bits.end());
    frame.insert(frame.end(), crc_bits.begin(), crc_bits.end());
    frame.insert(frame.end(), payload.begin(), payload.end());
    const Bits tail_crc = mirrored(crc_bits);
    frame.insert(frame.end(), tail_crc.begin(), tail_crc.end());
    const Bits tail_header = mirrored(header_bits);
    frame.insert(frame.end(), tail_header.begin(), tail_header.end());
    const Bits& tail_pilot = pilot_mirrored();
    frame.insert(frame.end(), tail_pilot.begin(), tail_pilot.end());
    return frame;
}

std::optional<Parsed_frame> parse_frame_at(std::span<const std::uint8_t> bits,
                                           std::size_t pilot_pos)
{
    // Compared as remaining lengths, so no pilot_pos can wrap an offset
    // back inside the input.
    if (pilot_pos > bits.size()
        || bits.size() - pilot_pos < pilot_length + header_length + crc_length)
        return std::nullopt;
    const std::size_t header_pos = pilot_pos + pilot_length;
    const auto header = decode_header(bits.subspan(header_pos, header_length));
    if (!header)
        return std::nullopt;

    const std::size_t crc_pos = header_pos + header_length;
    const std::size_t payload_pos = crc_pos + crc_length;
    if (header->payload_bits > bits.size() - payload_pos)
        return std::nullopt;

    Parsed_frame parsed;
    parsed.header = *header;
    const auto payload = bits.subspan(payload_pos, header->payload_bits);
    parsed.payload.assign(payload.begin(), payload.end());
    const auto crc_read = static_cast<std::uint32_t>(
        read_uint(bits, crc_pos, static_cast<int>(crc_length)));
    parsed.crc_ok = (crc32(payload) == crc_read);
    obs::count(parsed.crc_ok ? obs::Counter::crc_pass : obs::Counter::crc_fail);
    return parsed;
}

} // namespace anc::phy
