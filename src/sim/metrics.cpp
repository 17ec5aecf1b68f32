#include "sim/metrics.h"

#include "fec/codec.h"

namespace anc::sim {

void Run_metrics::merge(const Run_metrics& other)
{
    packets_attempted += other.packets_attempted;
    packets_delivered += other.packets_delivered;
    payload_bits_delivered += other.payload_bits_delivered;
    airtime_symbols += other.airtime_symbols;
    packet_ber.add_all(other.packet_ber.sorted_samples());
    overlaps.add_all(other.overlaps.sorted_samples());
}

double Run_metrics::mean_ber() const
{
    return packet_ber.empty() ? 0.0 : packet_ber.mean();
}

double Run_metrics::delivery_rate() const
{
    if (packets_attempted == 0)
        return 0.0;
    return static_cast<double>(packets_delivered) / static_cast<double>(packets_attempted);
}

double Run_metrics::raw_throughput() const
{
    if (airtime_symbols <= 0.0)
        return 0.0;
    return static_cast<double>(payload_bits_delivered) / airtime_symbols;
}

double Run_metrics::throughput() const
{
    return raw_throughput() * fec::throughput_factor(mean_ber());
}

double Run_metrics::mean_overlap() const
{
    return overlaps.empty() ? 0.0 : overlaps.mean();
}

} // namespace anc::sim
