// Ablation: amplitude estimation strategies (§6.2; the two estimators
// are explained in src/core/amplitude_estimator.h).
//
// The receiver must know the two amplitudes A and B before it can solve
// Lemma 6.1.  Compared here:
//   prefix   — measure A from the interference-free prefix, derive B
//              from mu (the library default);
//   mu/sigma — the paper's Eq. 5-6 estimator, blind over the overlap.
// The deliverable is delivery rate and residual BER on the Alice-Bob
// topology at two SNRs.
//
// Runs on the sweep engine: the estimator choice is the scenario's
// *scheme* axis (the cell sets the receiver's mu_sigma_only switch from
// it), and the (SNR x estimator) grid executes on the engine's thread
// pool.  --json and --metrics-json emit the sweep document and the run
// manifest.  The printed table is byte-identical to the bespoke
// pre-engine loop (tests/golden/ablation_amplitude.txt locks this in).

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "channel/medium.h"
#include "core/anc_receiver.h"
#include "core/relay.h"
#include "core/trigger.h"
#include "engine/engine.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/topology.h"
#include "util/bits.h"

namespace {

using namespace anc;

/// One (estimator, SNR) cell — the pre-engine per-cell loop, verbatim,
/// with its knobs sourced from Scenario_config.  The historical bench
/// ran every cell at seed 42; that seed is kept (the engine-derived
/// seed is unused) so the published table stays byte-stable across the
/// refactor.
engine::Scenario_result run_cell(const engine::Scenario_config& config, std::uint64_t)
{
    constexpr std::uint64_t cell_seed = 42;
    engine::Scenario_result out;
    out.series["ber"]; // present even when nothing is delivered
    std::size_t attempted = 0;
    std::size_t delivered = 0;

    const double noise_power = chan::noise_power_for_snr_db(config.snr_db);
    Pcg32 rng{cell_seed, 0xab1a7e};
    chan::Medium medium{noise_power, rng.fork(1), config.math_profile};
    Pcg32 link_rng = rng.fork(2);
    const net::Alice_bob_nodes& nodes = net::alice_bob_nodes;
    install_alice_bob(medium, net::Alice_bob_gains{}, {}, link_rng);
    net::Net_node alice{nodes.alice};
    net::Net_node bob{nodes.bob};
    const Anc_receiver receiver{{.interference_detector = {config.detector_threshold_db},
                                 .mu_sigma_only = config.scheme == "mu_sigma"},
                                noise_power, config.math_profile};
    Pcg32 wrng = rng.fork(3);
    net::Flow flow_ab{1, 3, 2048, wrng.fork(10)};
    net::Flow flow_ba{3, 1, 2048, wrng.fork(11)};

    dsp::Signal signal_a;
    dsp::Signal signal_b;
    dsp::Signal at_router;
    dsp::Signal fwd;
    dsp::Signal sig;
    for (std::size_t i = 0; i < config.exchanges; ++i) {
        const net::Packet pa = flow_ab.next();
        const net::Packet pb = flow_ba.next();
        const auto [da, db] = draw_distinct_delays(wrng);
        alice.transmit_into(pa, wrng, signal_a);
        bob.transmit_into(pb, wrng, signal_b);
        const chan::Transmission round1[] = {{alice.id(), signal_a, da},
                                             {bob.id(), signal_b, db}};
        medium.receive_into(nodes.router, round1, 64, at_router);
        if (!amplify_and_forward_into(at_router, noise_power, 1.0, fwd)) {
            attempted += 2;
            continue;
        }
        const chan::Transmission round2[] = {{nodes.router, fwd, 0}};
        for (int side = 0; side < 2; ++side) {
            ++attempted;
            const auto& node = side ? bob : alice;
            const auto& wanted = side ? pa : pb;
            medium.receive_into(node.id(), round2, 64, sig);
            const auto outcome = receiver.receive(sig, node.buffer());
            if (outcome.status == Receive_status::decoded_interference
                && outcome.frame->header.seq == wanted.seq) {
                ++delivered;
                out.series["ber"].add(
                    bit_error_rate(outcome.frame->payload, wanted.payload));
            }
        }
    }
    out.metrics.packets_attempted = attempted;
    out.metrics.packets_delivered = delivered;
    out.scalars["attempted"] = static_cast<double>(attempted);
    out.scalars["delivered"] = static_cast<double>(delivered);
    return out;
}

const engine::Task_result& cell_at(const std::vector<engine::Task_result>& tasks,
                                   const std::string& scheme, double snr_db)
{
    for (const engine::Task_result& task : tasks) {
        if (task.task.config.scheme == scheme && task.task.config.snr_db == snr_db)
            return task;
    }
    throw std::out_of_range{"ablation_amplitude: missing grid cell"};
}

} // namespace

int main(int argc, char** argv)
{
    using namespace anc;
    const bench::Driver_options options =
        bench::parse_driver_flags(argc, argv, {.exchanges = 20});
    bench::print_header("Ablation", "amplitude estimation: prefix-refined vs mu/sigma only");

    const std::size_t exchanges = options.exchanges * 4;
    const std::vector<double> snrs{20.0, 22.0, 25.0, 30.0};

    engine::Scenario_registry registry;
    registry.add({"ablation_amplitude", {"prefix", "mu_sigma"}, run_cell});

    engine::Sweep_grid grid;
    grid.math_profiles = options.math_profiles;
    grid.scenarios = {"ablation_amplitude"};
    grid.snr_db = snrs;
    grid.exchanges = {exchanges};

    const engine::Sweep_outcome outcome =
        bench::run_and_publish(options, grid, options.executor(), registry);
    const std::vector<engine::Task_result>& results = outcome.tasks;

    std::printf("%8s %-22s %10s %10s %10s\n", "SNR(dB)", "estimator", "delivered",
                "mean BER", "p90 BER");
    for (const double snr : snrs) {
        for (const bool mu_sigma : {false, true}) {
            const engine::Task_result& cell =
                cell_at(results, mu_sigma ? "mu_sigma" : "prefix", snr);
            const Cdf& ber = cell.result.series.at("ber");
            std::printf("%8.0f %-22s %6zu/%-3zu %10.4f %10.4f\n", snr,
                        mu_sigma ? "mu/sigma (paper Eq.5-6)" : "prefix-refined",
                        cell.result.metrics.packets_delivered,
                        cell.result.metrics.packets_attempted,
                        ber.empty() ? 1.0 : ber.mean(),
                        ber.empty() ? 1.0 : ber.quantile(0.90));
        }
    }
    std::printf("\nBoth estimators work; the prefix refinement mainly stabilizes the\n"
                "role assignment (which amplitude belongs to the known signal).\n");
    return 0;
}
