#include "phy/modem.h"

#include "dsp/workspace.h"
#include "phy/pilot.h"
#include "util/obs.h"

namespace anc::phy {

Modem::Modem(Modem_config config)
    : config_{config}, scrambler_{config.scrambler_seed}
{
}

Bits Modem::frame_bits(const Frame_header& header, std::span<const std::uint8_t> payload) const
{
    const Bits whitened = scrambler_.apply(payload);
    return build_frame(header, whitened);
}

dsp::Signal Modem::modulate(std::span<const std::uint8_t> frame_bits,
                            double initial_phase) const
{
    const obs::Stage_timer timer{obs::Stage::modulate};
    const dsp::Msk_modulator modulator{config_.amplitude, initial_phase};
    return modulator.modulate(frame_bits);
}

void Modem::modulate_into(std::span<const std::uint8_t> frame_bits,
                          double initial_phase, dsp::Signal& out) const
{
    const obs::Stage_timer timer{obs::Stage::modulate};
    const dsp::Msk_modulator modulator{config_.amplitude, initial_phase};
    modulator.modulate_into(frame_bits, out);
}

dsp::Signal Modem::modulate_frame(const Frame_header& header,
                                  std::span<const std::uint8_t> payload,
                                  double initial_phase) const
{
    return modulate(frame_bits(header, payload), initial_phase);
}

Bits Modem::demodulate_bits(dsp::Signal_view signal) const
{
    const obs::Stage_timer timer{obs::Stage::demodulate};
    return demodulator_.demodulate(signal);
}

void Modem::demodulate_bits_into(dsp::Signal_view signal, Bits& out) const
{
    const obs::Stage_timer timer{obs::Stage::demodulate};
    demodulator_.demodulate_into(signal, out);
}

Bits Modem::descramble(std::span<const std::uint8_t> payload) const
{
    return scrambler_.apply(payload);
}

std::optional<Received_frame> Modem::receive(dsp::Signal_view signal) const
{
    auto bits = dsp::Workspace::current().bits();
    {
        const obs::Stage_timer timer{obs::Stage::demodulate};
        demodulator_.demodulate_into(signal, *bits);
    }
    return receive_bits(*bits);
}

std::optional<Received_frame> Modem::receive_bits(std::span<const std::uint8_t> bits) const
{
    const auto match = find_pilot(bits, config_.pilot_max_errors);
    if (!match)
        return std::nullopt;
    const auto parsed = parse_frame_at(bits, match->position);
    if (!parsed || !parsed->crc_ok)
        return std::nullopt;

    Received_frame frame;
    frame.header = parsed->header;
    frame.payload = descramble(parsed->payload);
    frame.pilot_errors = match->errors;
    frame.pilot_position = match->position;
    return frame;
}

} // namespace anc::phy
