// Ablation: error correction over ANC payloads (§11.2's "extra
// redundancy", made concrete).
//
// ANC delivers packets with a residual BER of a few percent, and the
// errors are *bursty*: they cluster where the two constellations align
// (the drifting-carrier ambiguity bands).  This bench runs real
// Hamming(7,4) decoding over the actually-decoded payloads and sweeps the
// interleaver depth, showing that burst-spreading — not just redundancy —
// is what buys clean packets.
//
// Runs on the sweep engine: the interleaver depth is the grid's
// interleave_rows axis (Scenario_config::fec_interleave_rows), and the
// (SNR x depth) grid executes on the engine's thread pool.
// --json and --metrics-json emit the sweep document and the run
// manifest.  The printed table is byte-identical to the bespoke
// pre-engine loop (tests/golden/ablation_fec.txt locks this in).

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "channel/medium.h"
#include "core/anc_receiver.h"
#include "core/relay.h"
#include "core/trigger.h"
#include "engine/engine.h"
#include "fec/codec.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/topology.h"
#include "util/bits.h"
#include "util/stats.h"

namespace {

using namespace anc;

/// One (SNR, interleaver depth) cell — the pre-engine per-cell loop,
/// verbatim, with its knobs sourced from Scenario_config.  The
/// historical bench ran every cell at seed 99; that seed is kept (the
/// engine-derived seed is unused) so the published table stays
/// byte-stable across the refactor.
engine::Scenario_result run_cell(const engine::Scenario_config& config, std::uint64_t)
{
    constexpr std::uint64_t cell_seed = 99;
    engine::Scenario_result out;
    out.series["raw_ber"];
    out.series["data_ber"];
    std::size_t clean = 0;
    std::size_t decoded = 0;

    const fec::Fec_codec codec{config.fec_interleave_rows};
    const std::size_t data_bits = 1170;

    const double noise_power = chan::noise_power_for_snr_db(config.snr_db);
    Pcg32 rng{cell_seed, 0xfec};
    chan::Medium medium{noise_power, rng.fork(1), config.math_profile};
    Pcg32 link_rng = rng.fork(2);
    net::Alice_bob_nodes nodes;
    install_alice_bob(medium, nodes, net::Alice_bob_gains{}, {}, link_rng);
    net::Net_node alice{nodes.alice};
    net::Net_node bob{nodes.bob};
    const Anc_receiver receiver{config.receiver, noise_power, config.math_profile};
    Pcg32 traffic = rng.fork(3);

    dsp::Signal signal_a;
    dsp::Signal signal_b;
    dsp::Signal at_router;
    dsp::Signal fwd;
    dsp::Signal at_alice;
    for (std::size_t i = 0; i < config.exchanges; ++i) {
        const Bits data = random_bits(data_bits, traffic);
        net::Packet pb;
        pb.src = 3;
        pb.dst = 1;
        pb.seq = static_cast<std::uint16_t>(i + 1);
        pb.payload = codec.encode(data);
        net::Packet pa;
        pa.src = 1;
        pa.dst = 3;
        pa.seq = static_cast<std::uint16_t>(i + 1);
        pa.payload = random_bits(pb.payload.size(), traffic);

        const auto [da, db] = draw_distinct_delays(Trigger_config{}, rng);
        alice.transmit_into(pa, rng, signal_a);
        bob.transmit_into(pb, rng, signal_b);
        const chan::Transmission round1[] = {{alice.id(), signal_a, da},
                                             {bob.id(), signal_b, db}};
        medium.receive_into(nodes.router, round1, 64, at_router);
        if (!amplify_and_forward_into(at_router, noise_power, 1.0, fwd))
            continue;
        const chan::Transmission round2[] = {{nodes.router, fwd, 0}};
        medium.receive_into(alice.id(), round2, 64, at_alice);
        const auto outcome = receiver.receive(at_alice, alice.buffer());
        if (outcome.status != Receive_status::decoded_interference)
            continue;

        ++decoded;
        out.series["raw_ber"].add(bit_error_rate(outcome.frame->payload, pb.payload));
        const Bits recovered = codec.decode(outcome.frame->payload, data_bits);
        const double residual = bit_error_rate(recovered, data);
        out.series["data_ber"].add(residual);
        clean += (residual == 0.0);
    }
    out.metrics.packets_attempted = config.exchanges;
    out.metrics.packets_delivered = decoded;
    out.scalars["clean"] = static_cast<double>(clean);
    out.scalars["decoded"] = static_cast<double>(decoded);
    return out;
}

const engine::Task_result& cell_at(const std::vector<engine::Task_result>& tasks,
                                   double snr_db, std::size_t rows)
{
    for (const engine::Task_result& task : tasks) {
        if (task.task.config.snr_db == snr_db
            && task.task.config.fec_interleave_rows == rows)
            return task;
    }
    throw std::out_of_range{"ablation_fec: missing grid cell"};
}

} // namespace

int main(int argc, char** argv)
{
    using namespace anc;
    const bench::Driver_options options =
        bench::parse_driver_flags(argc, argv, {.exchanges = 20});
    bench::print_header("Ablation", "FEC over real ANC error patterns, interleaver sweep");

    const std::size_t exchanges = options.exchanges * 3;
    const std::vector<double> snrs{20.0, 22.0, 25.0};
    const std::vector<std::size_t> depths{1, 8, 64};

    engine::Scenario_registry registry;
    registry.add({"ablation_fec", {"anc"}, run_cell});

    engine::Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"ablation_fec"};
    grid.snr_db = snrs;
    grid.interleave_rows = depths;
    grid.exchanges = {exchanges};

    const engine::Sweep_outcome outcome =
        bench::run_and_publish(options, grid, options.executor(), registry);
    const std::vector<engine::Task_result>& results = outcome.tasks;

    std::printf("%8s %12s %12s %14s %12s\n", "SNR(dB)", "interleave", "raw BER",
                "post-FEC BER", "clean pkts");
    for (const double snr : snrs) {
        for (const std::size_t rows : depths) {
            const engine::Task_result& cell = cell_at(results, snr, rows);
            const Cdf& raw_ber = cell.result.series.at("raw_ber");
            const Cdf& data_ber = cell.result.series.at("data_ber");
            std::printf("%8.0f %12zu %12.5f %14.5f %7zu/%zu\n", snr, rows,
                        raw_ber.empty() ? 0.0 : raw_ber.mean(),
                        data_ber.empty() ? 0.0 : data_ber.mean(),
                        static_cast<std::size_t>(cell.result.scalars.at("clean")),
                        static_cast<std::size_t>(cell.result.scalars.at("decoded")));
        }
    }
    std::printf("\nANC's residual errors are bursty (carrier-drift ambiguity bands), so\n"
                "a deep interleaver matters as much as the code rate: at 64 rows the\n"
                "rate-4/7 code delivers clean packets through most collisions.\n");
    return 0;
}
