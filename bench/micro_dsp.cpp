// Microbenchmarks for the DSP and PHY building blocks (google-benchmark).
// Not a paper figure — these quantify the per-stage cost of the pipeline
// in Fig. 8 for anyone porting it to a real-time SDR.

#include <benchmark/benchmark.h>

#include "channel/awgn.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "dsp/scrambler.h"
#include "phy/detector.h"
#include "phy/frame.h"
#include "phy/modem.h"
#include "phy/pilot.h"
#include "util/bits.h"
#include "util/rng.h"

namespace {

using namespace anc;

Bits make_bits(std::size_t n)
{
    Pcg32 rng{1};
    return random_bits(n, rng);
}

dsp::Signal make_signal(std::size_t bits)
{
    Pcg32 rng{2};
    const dsp::Msk_modulator modulator{1.0, 0.3};
    dsp::Signal signal = modulator.modulate(random_bits(bits, rng));
    chan::Awgn noise{0.003, rng.fork(1)};
    noise.add_in_place(signal);
    return signal;
}

void bm_msk_modulate(benchmark::State& state)
{
    const Bits bits = make_bits(static_cast<std::size_t>(state.range(0)));
    const dsp::Msk_modulator modulator;
    for (auto _ : state)
        benchmark::DoNotOptimize(modulator.modulate(bits));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_msk_modulate)->Arg(1024)->Arg(4096);

void bm_msk_demodulate(benchmark::State& state)
{
    const dsp::Signal signal = make_signal(static_cast<std::size_t>(state.range(0)));
    const dsp::Msk_demodulator demodulator;
    for (auto _ : state)
        benchmark::DoNotOptimize(demodulator.demodulate(signal));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_msk_demodulate)->Arg(1024)->Arg(4096);

void bm_scrambler(benchmark::State& state)
{
    const Bits bits = make_bits(2048);
    const dsp::Scrambler scrambler;
    for (auto _ : state)
        benchmark::DoNotOptimize(scrambler.apply(bits));
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(bm_scrambler);

void bm_energy_scan(benchmark::State& state)
{
    // The analyzer's full scan on a collision: |y|^2 chains, the lane
    // ratio pass and the run finder over a mask with sustained runs.
    dsp::Signal signal = make_signal(4096);
    dsp::accumulate(signal, dsp::rotated(make_signal(2048), 0.9), 1024);
    const phy::Interference_detector detector{0.003};
    for (auto _ : state)
        benchmark::DoNotOptimize(detector.analyze(signal));
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(signal.size()));
}
BENCHMARK(bm_energy_scan);

void bm_packet_detector(benchmark::State& state)
{
    const dsp::Signal signal = make_signal(4096);
    const phy::Packet_detector detector{0.003};
    for (auto _ : state)
        benchmark::DoNotOptimize(detector.detect(signal));
}
BENCHMARK(bm_packet_detector);

void bm_interference_detector(benchmark::State& state)
{
    const dsp::Signal signal = make_signal(4096);
    const phy::Interference_detector detector{0.003};
    for (auto _ : state)
        benchmark::DoNotOptimize(detector.analyze(signal));
}
BENCHMARK(bm_interference_detector);

void bm_pilot_search(benchmark::State& state)
{
    Pcg32 rng{3};
    Bits haystack = random_bits(2048, rng);
    const Bits& pilot = phy::pilot_sequence();
    std::copy(pilot.begin(), pilot.end(), haystack.begin() + 1500);
    for (auto _ : state)
        benchmark::DoNotOptimize(phy::find_pilot(haystack, 6));
}
BENCHMARK(bm_pilot_search);

void bm_frame_build(benchmark::State& state)
{
    const Bits payload = make_bits(2048);
    phy::Frame_header header;
    header.src = 1;
    header.dst = 2;
    header.seq = 7;
    header.payload_bits = 2048;
    for (auto _ : state)
        benchmark::DoNotOptimize(phy::build_frame(header, payload));
}
BENCHMARK(bm_frame_build);

void bm_modem_receive_clean(benchmark::State& state)
{
    const Bits payload = make_bits(1024);
    phy::Frame_header header;
    header.src = 1;
    header.dst = 2;
    header.seq = 7;
    header.payload_bits = 1024;
    const phy::Modem modem;
    dsp::Signal signal = modem.modulate_frame(header, payload, 0.4);
    Pcg32 rng{4};
    chan::Awgn noise{0.003, rng};
    noise.add_in_place(signal);
    for (auto _ : state)
        benchmark::DoNotOptimize(modem.receive(signal));
}
BENCHMARK(bm_modem_receive_clean);

} // namespace

BENCHMARK_MAIN();
