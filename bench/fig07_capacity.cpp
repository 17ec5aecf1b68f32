// Figure 7: capacity bounds vs SNR for the half-duplex 2-way relay
// channel — the traditional-routing upper bound against the ANC
// (amplify-and-forward) lower bound (Theorem 8.1).

#include <cstdio>

#include "bench_util.h"
#include "capacity/capacity.h"
#include "util/db.h"

int main()
{
    using namespace anc;
    bench::print_header("Figure 7", "capacity bounds vs SNR, half-duplex 2-way relay");

    std::printf("%8s %14s %12s %8s\n", "SNR(dB)", "traditional", "ANC", "gain");
    for (const cap::Capacity_point& p : cap::sweep(0.0, 55.0, 2.5)) {
        std::printf("%8.1f %14.4f %12.4f %8.3f\n", p.snr_db, p.traditional, p.anc, p.gain);
    }

    // The paper reads these off Fig. 7 at 25, 40 and 55 dB.
    const double snr_25 = from_db(25.0);
    const double snr_40 = from_db(40.0);
    const double snr_55 = from_db(55.0);
    const auto closed_form = [](double value) { return bench::Measured{"closed form", value}; };
    std::printf("\nPaper vs measured:\n");
    bench::print_compare(bench::paper::capacity_crossover_db,
                         closed_form(cap::crossover_snr_db()));
    bench::print_compare(bench::paper::capacity_gain_25db,
                         closed_form(cap::capacity_gain(snr_25)));
    bench::print_compare(bench::paper::capacity_gain_40db,
                         closed_form(cap::capacity_gain(snr_40)));
    bench::print_compare(bench::paper::traditional_capacity_55db,
                         closed_form(cap::traditional_upper_bound(snr_55)));
    bench::print_compare(bench::paper::anc_capacity_55db,
                         closed_form(cap::anc_lower_bound(snr_55)));
    std::printf("\nAsymptotics: gain(80 dB)=%.3f, gain(160 dB)=%.3f -> 2 (Theorem 8.1)\n",
                cap::capacity_gain(from_db(80.0)), cap::capacity_gain(from_db(160.0)));
    return 0;
}
