// The SIMD backend's two contracts (util/simd.h):
//
//   1. dispatch — resolve_backend() is a pure, testable rule; the AVX2
//      lanes are only reachable when CPUID proves AVX2+FMA, the AVX-512
//      lanes additionally require the AVX-512F flag, and the
//      ANC_FORCE_SCALAR_SIMD / ANC_FORCE_AVX2_SIMD overrides step the
//      decision down.
//   2. bit-compatibility — every lane kernel equals the scalar fast
//      kernel it transcribes, element for element, bit for bit.  The
//      "ULP bound" of every kernel is therefore 0, which these tests
//      assert with exact == comparisons (through bit patterns, so
//      -0.0 vs +0.0 discrepancies cannot hide).
//
// Each lane table this CPU can run (avx2 where CPUID reports AVX2+FMA,
// avx512 where it also reports AVX-512F) is compared member by member
// against detail::scalar_kernels; the public batch API is additionally
// compared against the scalar kernels on every machine, covering the
// dispatcher's block/tail seam at awkward lengths.
//
// The atan2 lanes are reached through diff_arg_batch, the entry point
// the decoder's unknown tail runs on: a sample stream that alternates
// 1+0i with z = x+iy makes transition 2k evaluate atan2 of z·conj(1),
// i.e. fast_atan2(y, x) on the exact (y, x) operands (see
// atan2_through_diff_arg), and transition 2k+1 that of conj(z).

#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "phy/pilot.h"
#include "util/bits.h"
#include "util/cpu_features.h"
#include "util/fastmath.h"
#include "util/rng.h"

namespace anc::simd {
namespace {

using detail::Kernel_table;
using detail::scalar_kernels;

struct Lane_table {
    const char* name;
    const Kernel_table& kernels;
};

bool avx2_available()
{
    return cpu_features().avx2 && cpu_features().fma;
}

bool avx512_available()
{
    return avx2_available() && cpu_features().avx512f;
}

constexpr const char* no_avx2 = "CPU lacks AVX2+FMA; backend is scalar-only here";
constexpr const char* no_avx512 = "CPU lacks AVX-512F; widest backend here is avx2";

/// The lane tables this CPU runs; empty on a scalar-only machine.
std::vector<Lane_table> lane_tables()
{
    std::vector<Lane_table> tables;
    if (!avx2_available())
        return tables;
    tables.push_back({"avx2", detail::kernels_for(Backend::avx2)});
    if (avx512_available())
        tables.push_back({"avx512", detail::kernels_for(Backend::avx512)});
    return tables;
}

void expect_same_bits(double a, double b, const char* what, std::size_t i)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << what << " lane " << i << ": " << a << " vs " << b;
}

std::vector<double> random_range(std::size_t count, double lo, double hi,
                                 std::uint64_t seed)
{
    Pcg32 rng{seed, 11};
    std::vector<double> out(count);
    for (double& v : out)
        v = lo + (hi - lo) * rng.next_double();
    return out;
}

/// The alternating stream 1+0i, x[0]+iy[0], 1+0i, x[1]+iy[1], ...: its
/// 2·size transitions, fed to diff_arg_batch, put atan2(y[k], x[k]) at
/// even index 2k.  The products with 1+0i are exact, but they add
/// x·(−0) to y and subtract y·(−0) from x, so a −0 y with a negative or
/// −0 x, and a −0 x with a +0 or positive y, come out as +0: the pairs
/// (−0, x ≤ −0) and (y ≥ +0, −0) cannot be produced.
std::vector<double> atan2_through_diff_arg(const std::vector<double>& y,
                                           const std::vector<double>& x)
{
    std::vector<double> samples;
    samples.reserve(4 * y.size() + 2);
    for (std::size_t k = 0; k < y.size(); ++k)
        samples.insert(samples.end(), {1.0, 0.0, x[k], y[k]});
    samples.insert(samples.end(), {1.0, 0.0});
    return samples;
}

TEST(SimdBackend, ResolveBackendRule)
{
    // (avx2, fma, avx512f, force_scalar, force_avx2)
    EXPECT_EQ(resolve_backend(true, true, false, false, false), Backend::avx2);
    EXPECT_EQ(resolve_backend(true, true, true, false, false), Backend::avx512);
    EXPECT_EQ(resolve_backend(true, true, true, false, true), Backend::avx2);
    EXPECT_EQ(resolve_backend(true, true, true, true, false), Backend::scalar);
    // force_scalar beats force_avx2 when both overrides are set.
    EXPECT_EQ(resolve_backend(true, true, true, true, true), Backend::scalar);
    EXPECT_EQ(resolve_backend(true, true, false, true, false), Backend::scalar);
    EXPECT_EQ(resolve_backend(false, true, false, false, false), Backend::scalar);
    EXPECT_EQ(resolve_backend(true, false, false, false, false), Backend::scalar);
    // force_avx2 never upgrades a machine that resolves to scalar.
    EXPECT_EQ(resolve_backend(false, false, false, false, true), Backend::scalar);
    EXPECT_EQ(resolve_backend(false, false, false, false, false), Backend::scalar);
    EXPECT_STREQ(to_string(Backend::avx512), "avx512");
    EXPECT_STREQ(to_string(Backend::avx2), "avx2");
    EXPECT_STREQ(to_string(Backend::scalar), "scalar");
}

TEST(SimdBackend, ActiveBackendMatchesCpuAndOverride)
{
    // The process-wide decision must agree with the pure rule applied to
    // this process's actual CPUID and environment.
    EXPECT_EQ(active_backend(),
              resolve_backend(cpu_features().avx2, cpu_features().fma,
                              cpu_features().avx512f, force_scalar_from_env(),
                              force_avx2_from_env()));
    EXPECT_EQ(kernels_active(), active_backend() != Backend::scalar);
    EXPECT_EQ(&detail::active_kernels(), &detail::kernels_for(active_backend()));
    EXPECT_EQ(&detail::kernels_for(Backend::scalar), &scalar_kernels);
    EXPECT_EQ(scalar_kernels.width, 1u);
    for (const Lane_table& lanes : lane_tables())
        EXPECT_EQ(lanes.kernels.width, std::string_view{lanes.name} == "avx2" ? 4u : 8u);
}

TEST(SimdBackend, CpuFeatureImplications)
{
    // CPUID sanity: AVX2 without AVX (or AVX-512F without AVX2) would
    // mean the probe mis-read a leaf.
    if (cpu_features().avx2) {
        EXPECT_TRUE(cpu_features().avx);
    }
    if (cpu_features().avx512f) {
        EXPECT_TRUE(cpu_features().avx2);
    }
}

// ------------------------------------------ dispatched API == scalar

TEST(SimdKernels, Atan2BatchEdgeCases)
{
    // Quadrants, axes, and signed zeros — where octant assembly and
    // copysign must match std::atan2's conventions exactly — through the
    // dispatched diff_arg_batch lanes (every pair the alternating stream
    // can produce; see atan2_through_diff_arg).
    const std::vector<double> y = {0.0, -0.0, 1.0,  -1.0, 1.0, -1.0, 5.0, -5.0,
                                   0.0, -0.0, 1e-9, 1e9,  -1e9, 2.5, 0.0, -2.0};
    const std::vector<double> x = {0.0,  0.0, 0.0,  0.0,  1.0,  1.0, -3.0, -3.0,
                                   7.0,  7.0, 1e9,  1e-9, 1e-9, -2.5, -1.0, -0.0};
    const std::vector<double> samples = atan2_through_diff_arg(y, x);
    const std::size_t transitions = 2 * y.size();
    std::vector<double> out(transitions);
    std::vector<double> scalar(transitions);
    diff_arg_batch(samples.data(), transitions, out.data());
    scalar_kernels.diff_arg_batch(samples.data(), transitions, scalar.data());
    for (std::size_t i = 0; i < transitions; ++i)
        expect_same_bits(out[i], scalar[i], "atan2-edge lanes-vs-scalar", i);
    for (std::size_t k = 0; k < y.size(); ++k)
        expect_same_bits(out[2 * k], fast_atan2(y[k], x[k]), "atan2-edge", k);
}

// ------------------------------------------- lane tables vs scalar
// Each lane table this CPU runs (avx2, avx512), member by member against
// scalar_kernels at lengths that are whole lane blocks.  This is the
// lane-vs-scalar proof that also stands in for the "native vs
// ANC_FORCE_SCALAR_SIMD dispatch" bit-identity claim (a forced-scalar
// process runs exactly scalar_kernels).

/// The atan2 lanes of `kernels` over wide operand ranges, on the
/// alternating stream of atan2_through_diff_arg.
void expect_atan2_lanes_equal_scalar(const Kernel_table& kernels, const char* what,
                                     std::uint64_t y_seed, std::uint64_t x_seed)
{
    const std::size_t n = 2048; // 2n transitions, a multiple of 8: pure lane coverage
    const std::vector<double> y = random_range(n, -20.0, 20.0, y_seed);
    const std::vector<double> x = random_range(n, -20.0, 20.0, x_seed);
    const std::vector<double> samples = atan2_through_diff_arg(y, x);
    std::vector<double> lanes(2 * n), scalar(2 * n);
    kernels.diff_arg_batch(samples.data(), 2 * n, lanes.data());
    scalar_kernels.diff_arg_batch(samples.data(), 2 * n, scalar.data());
    for (std::size_t i = 0; i < 2 * n; ++i)
        expect_same_bits(lanes[i], scalar[i], what, i);
}

/// The Eq. 7/8 candidate and selection lanes of `kernels`, and its
/// diff_arg lanes, over `count - width` transitions (whole lane blocks).
void expect_decoder_kernels_equal_scalar(const Kernel_table& kernels, const char* what,
                                         std::uint64_t sample_seed, std::uint64_t known_seed)
{
    SCOPED_TRACE(what);
    const std::size_t count = 512;
    const std::vector<double> samples = random_range(2 * count, -3.0, 3.0, sample_seed);
    const double a = 0.95;
    const double b = 0.88;

    std::vector<double> tp1(count), tm1(count), pm1(count), pp1(count);
    std::vector<double> tp2(count), tm2(count), pm2(count), pp2(count);
    kernels.anc_candidates_batch(samples.data(), count, a, b, tp1.data(), tm1.data(),
                                 pm1.data(), pp1.data());
    scalar_kernels.anc_candidates_batch(samples.data(), count, a, b, tp2.data(), tm2.data(),
                                        pm2.data(), pp2.data());
    for (std::size_t i = 0; i < count; ++i) {
        expect_same_bits(tp1[i], tp2[i], "theta+", i);
        expect_same_bits(tm1[i], tm2[i], "theta-", i);
        expect_same_bits(pm1[i], pm2[i], "phi-", i);
        expect_same_bits(pp1[i], pp2[i], "phi+", i);
    }

    const std::size_t transitions = count - kernels.width;
    std::vector<double> known(transitions);
    Pcg32 rng{known_seed, 3};
    for (double& k : known)
        k = rng.next_bernoulli(0.5) ? 1.5707963267948966 : -1.5707963267948966;
    std::vector<double> f1(transitions), e1(transitions), d1(transitions);
    std::vector<double> f2(transitions), e2(transitions), d2(transitions);
    kernels.anc_select_batch(tp1.data(), tm1.data(), pm1.data(), pp1.data(), known.data(),
                             transitions, f1.data(), e1.data());
    scalar_kernels.anc_select_batch(tp2.data(), tm2.data(), pm2.data(), pp2.data(),
                                    known.data(), transitions, f2.data(), e2.data());
    kernels.diff_arg_batch(samples.data(), transitions, d1.data());
    scalar_kernels.diff_arg_batch(samples.data(), transitions, d2.data());
    for (std::size_t i = 0; i < transitions; ++i) {
        expect_same_bits(f1[i], f2[i], "selected phi", i);
        expect_same_bits(e1[i], e2[i], "selected error", i);
        expect_same_bits(d1[i], d2[i], "diff arg", i);
    }
}

TEST(SimdKernels, Avx2LanesEqualScalarKernels)
{
    if (!avx2_available())
        GTEST_SKIP() << no_avx2;
    expect_atan2_lanes_equal_scalar(detail::kernels_for(Backend::avx2),
                                    "atan2 avx2-vs-scalar", 0xE1, 0xE2);
}

TEST(SimdKernels, Avx512LanesEqualScalarKernels)
{
    if (!avx512_available())
        GTEST_SKIP() << no_avx512;
    expect_atan2_lanes_equal_scalar(detail::kernels_for(Backend::avx512),
                                    "atan2 avx512-vs-scalar", 0x511, 0x512);
}

TEST(SimdKernels, Avx2DecoderKernelsEqualScalar)
{
    if (!avx2_available())
        GTEST_SKIP() << no_avx2;
    expect_decoder_kernels_equal_scalar(detail::kernels_for(Backend::avx2), "avx2", 0xF1,
                                        0xF2);
}

TEST(SimdKernels, Avx512DecoderKernelsEqualScalar)
{
    if (!avx512_available())
        GTEST_SKIP() << no_avx512;
    expect_decoder_kernels_equal_scalar(detail::kernels_for(Backend::avx512), "avx512",
                                        0x521, 0x522);
}

// The channel accumulators (channel/link.cpp) add into an existing
// buffer, so every comparison starts from the same nonzero accumulator.
struct Accumulators {
    decltype(&cmul_accumulate) cmul;
    decltype(&cmul_fade_accumulate) cmul_fade;
};

Accumulators accumulators_of(const Kernel_table& table)
{
    return {table.cmul_accumulate, table.cmul_fade_accumulate};
}

void expect_accumulators_equal_scalar(const Accumulators& kernels, std::size_t samples,
                                      const char* what)
{
    const std::vector<double> in = random_range(2 * samples, -2.0, 2.0, 0x7A1);
    const std::vector<double> rotors = random_range(2 * samples, -1.0, 1.0, 0x7A2);
    const std::vector<double> start = random_range(2 * samples, -0.5, 0.5, 0x7A3);
    const auto expect_equal = [&](const std::vector<double>& lanes,
                                  const std::vector<double>& scalar, const char* kernel) {
        for (std::size_t i = 0; i < 2 * samples; ++i)
            expect_same_bits(lanes[i], scalar[i], kernel, i);
    };
    SCOPED_TRACE(testing::Message() << what << ", " << samples << " samples");
    std::vector<double> lanes = start;
    std::vector<double> scalar = start;
    kernels.cmul(in.data(), rotors.data(), lanes.data(), samples);
    scalar_kernels.cmul_accumulate(in.data(), rotors.data(), scalar.data(), samples);
    expect_equal(lanes, scalar, "cmul_accumulate");
    lanes = start;
    scalar = start;
    kernels.cmul_fade(in.data(), rotors.data(), lanes.data(), samples, -1.37, 0.42);
    scalar_kernels.cmul_fade_accumulate(in.data(), rotors.data(), scalar.data(), samples,
                                        -1.37, 0.42);
    expect_equal(lanes, scalar, "cmul_fade_accumulate");
}

TEST(SimdKernels, Avx2AccumulatorsEqualScalar)
{
    if (!avx2_available())
        GTEST_SKIP() << no_avx2;
    expect_accumulators_equal_scalar(accumulators_of(detail::kernels_for(Backend::avx2)),
                                     2048, "accumulate avx2-vs-scalar");
}

TEST(SimdKernels, Avx512AccumulatorsEqualScalar)
{
    if (!avx512_available())
        GTEST_SKIP() << no_avx512;
    expect_accumulators_equal_scalar(accumulators_of(detail::kernels_for(Backend::avx512)),
                                     2048, "accumulate avx512-vs-scalar");
}

TEST(SimdKernels, AccumulatorsMatchScalarAcrossTailSeam)
{
    // The public entry points on whatever backend this process resolves
    // to, at every length up to two blocks of the widest table (avx512,
    // 8 samples) plus one — each tail the blocks can leave, after zero,
    // one and two blocks — and at longer awkward ones.
    const Accumulators dispatched{cmul_accumulate, cmul_fade_accumulate};
    for (std::size_t samples = 0; samples <= 2 * 8 + 1; ++samples)
        expect_accumulators_equal_scalar(dispatched, samples,
                                         "accumulate dispatched-vs-scalar");
    for (const std::size_t samples : {31, 1023})
        expect_accumulators_equal_scalar(dispatched, samples,
                                         "accumulate dispatched-vs-scalar");
}

TEST(SimdKernels, LaneTablesCounterNormalEqualsScalar)
{
    if (lane_tables().empty())
        GTEST_SKIP() << no_avx2;
    // Keys are passed directly so this holds for arbitrary key material,
    // not just Counter_normal-derived keys (the public add_scaled_simd
    // path is covered by tests/util/counter_normal_test.cpp).
    const std::uint64_t key_a = 0x0123456789abcdefULL;
    const std::uint64_t key_b = 0xfedcba9876543210ULL;
    const std::size_t count = 256; // a multiple of 16
    std::vector<double> scalar(count, 0.25);
    scalar_kernels.counter_normal_add_scaled(key_a, key_b, 41, 0.7, scalar.data(), count);
    for (const Lane_table& lanes : lane_tables()) {
        std::vector<double> acc(count, 0.25);
        lanes.kernels.counter_normal_add_scaled(key_a, key_b, 41, 0.7, acc.data(), count);
        for (std::size_t i = 0; i < count; ++i)
            expect_same_bits(acc[i], scalar[i], lanes.name, i);
    }
}

TEST(SimdKernels, LaneTablesPilotScansEqualScalar)
{
    if (lane_tables().empty())
        GTEST_SKIP() << no_avx2;
    // Packed pilot-search inputs (phy/pilot.h) with a planted noisy copy
    // of the pattern, so zero-error breaks and tight budgets both occur.
    Pcg32 rng{0x9A1, 7};
    for (const std::size_t length : {1, 24, 64, 65, 100}) {
        const Bits pattern = random_bits(length, rng);
        Bits bits = random_bits(1500, rng);
        const std::size_t planted = rng.next_in_range(0, 1400);
        for (std::size_t i = 0; i < length; ++i)
            bits[planted + i] = pattern[i] ^ (rng.next_in_range(0, 15) == 0 ? 1 : 0);
        const phy::Packed_pattern packed{pattern};
        const phy::Packed_bits haystack{bits};
        const std::uint64_t* words = haystack.words();
        const std::size_t last_start = bits.size() - length;
        for (const std::size_t max_errors : {std::size_t{0}, std::size_t{3}, length}) {
            for (const std::size_t from : {std::size_t{0}, std::size_t{37}, planted}) {
                std::uint64_t scalar_key = ~std::uint64_t{0};
                scalar_kernels.pilot_scan_starts(words, packed.shifted(0), packed.mask(0),
                                                 packed.stride(), from, last_start,
                                                 max_errors, &scalar_key);
                for (const Lane_table& lanes : lane_tables()) {
                    std::uint64_t key = ~std::uint64_t{0};
                    lanes.kernels.pilot_scan_starts(words, packed.shifted(0),
                                                    packed.mask(0), packed.stride(), from,
                                                    last_start, max_errors, &key);
                    EXPECT_EQ(key, scalar_key) << lanes.name << " starts, length "
                                               << length << ", from " << from;
                }
            }
            if (packed.stride() != 2)
                continue;
            const std::size_t w_hi = (last_start - 63) >> 6;
            std::uint64_t scalar_key = ~std::uint64_t{0};
            scalar_kernels.pilot_scan_striped(words, packed.shifted(0), packed.mask(0), 1,
                                              w_hi, max_errors, &scalar_key);
            for (const Lane_table& lanes : lane_tables()) {
                std::uint64_t key = ~std::uint64_t{0};
                lanes.kernels.pilot_scan_striped(words, packed.shifted(0), packed.mask(0), 1,
                                                 w_hi, max_errors, &key);
                EXPECT_EQ(key, scalar_key) << lanes.name << " striped, length " << length;
            }
        }
    }
}

// ------------------------------------------------------ receiver scans
// The detector and demodulator kernels serve both math profiles, so the
// lanes must reproduce the scalar loops on any input: NaN, ±Inf,
// denormals and ±0 included, divisors with and without the exact
// reciprocal, and counts whose tails the scalar kernel finishes.

/// Uniform values in [lo, hi], a quarter of them replaced by specials.
std::vector<double> hostile_values(std::size_t count, double lo, double hi,
                                   std::uint64_t seed)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double specials[] = {0.0,
                               -0.0,
                               inf,
                               -inf,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::denorm_min(),
                               -4.9e-310,
                               1e-12,
                               1e300,
                               -1e300};
    std::vector<double> out = random_range(count, lo, hi, seed);
    Pcg32 rng{seed, 29};
    for (double& v : out) {
        if (rng.next_in_range(0, 3) == 0)
            v = specials[rng.next_in_range(0, 9)];
    }
    return out;
}

void expect_receiver_scans_equal_scalar(const Kernel_table& kernels, const char* what)
{
    const std::size_t width = kernels.width;
    const double sigma2 = 0.01;
    const double mean_threshold = 0.3;
    const double ratio_threshold = 10.0;
    const double neg_inf = -std::numeric_limits<double>::infinity();
    for (const std::size_t window : {16, 48}) {
        const detail::Window_divisor divisor = detail::window_divisor(window);
        const auto w = static_cast<double>(window);
        for (const std::size_t count : {std::size_t{0}, std::size_t{1}, width - 1, width,
                                        width + 1, std::size_t{63}, std::size_t{64},
                                        std::size_t{65}, std::size_t{130},
                                        std::size_t{515}}) {
            const std::vector<double> sums = hostile_values(count, 0.0, 8.0 * w, 0x5C + count);
            const std::vector<double> sum_sqs =
                hostile_values(count, 0.0, 64.0 * w, 0x5D + count);
            // The dispatcher's split: lanes over the full blocks, the
            // scalar kernel over the tail.
            const std::size_t head = count - count % width;
            const std::size_t words = (count + 63) / 64;

            std::vector<std::uint64_t> lanes(words);
            std::vector<std::uint64_t> scalar(words);
            kernels.window_mean_mask(sums.data(), head, divisor, mean_threshold,
                                     lanes.data(), 0);
            scalar_kernels.window_mean_mask(sums.data() + head, count - head, divisor,
                                            mean_threshold, lanes.data(), head);
            scalar_kernels.window_mean_mask(sums.data(), count, divisor, mean_threshold,
                                            scalar.data(), 0);
            EXPECT_EQ(lanes, scalar) << what << " mean mask, window " << window
                                     << ", count " << count;

            std::fill(lanes.begin(), lanes.end(), 0);
            std::fill(scalar.begin(), scalar.end(), 0);
            double lane_peak =
                kernels.excess_variance_mask(sums.data(), sum_sqs.data(), head, divisor,
                                             sigma2, ratio_threshold, 1e-12, lanes.data(), 0);
            lane_peak = scalar_kernels.excess_variance_mask(
                sums.data() + head, sum_sqs.data() + head, count - head, divisor, sigma2,
                ratio_threshold, lane_peak, lanes.data(), head);
            const double scalar_peak = scalar_kernels.excess_variance_mask(
                sums.data(), sum_sqs.data(), count, divisor, sigma2, ratio_threshold, 1e-12,
                scalar.data(), 0);
            EXPECT_EQ(lanes, scalar) << what << " ratio mask, window " << window
                                     << ", count " << count;
            expect_same_bits(lane_peak, scalar_peak, what, count);

            // 0-ULP ratios: a block of `width` copies of window i, with
            // the peak started at -inf, makes the peak that ratio.
            for (std::size_t i = 0; i < count; ++i) {
                const std::vector<double> block_sums(width, sums[i]);
                const std::vector<double> block_sum_sqs(width, sum_sqs[i]);
                std::uint64_t lane_bits = 0;
                std::uint64_t scalar_bits = 0;
                const double lane_ratio = kernels.excess_variance_mask(
                    block_sums.data(), block_sum_sqs.data(), width, divisor, sigma2,
                    ratio_threshold, neg_inf, &lane_bits, 0);
                const double scalar_ratio = scalar_kernels.excess_variance_mask(
                    &sums[i], &sum_sqs[i], 1, divisor, sigma2, ratio_threshold, neg_inf,
                    &scalar_bits, 0);
                expect_same_bits(lane_ratio, scalar_ratio, what, i);
            }

            const std::vector<double> samples = hostile_values(2 * (count + 1), -2.0, 2.0,
                                                               0x5E + count);
            std::vector<std::uint8_t> lane_bytes(count, 0xAA);
            std::vector<std::uint8_t> scalar_bytes(count, 0x55);
            kernels.msk_decide(samples.data(), head, lane_bytes.data());
            scalar_kernels.msk_decide(samples.data() + 2 * head, count - head,
                                      lane_bytes.data() + head);
            scalar_kernels.msk_decide(samples.data(), count, scalar_bytes.data());
            EXPECT_EQ(lane_bytes, scalar_bytes) << what << " demod, count " << count;
        }
    }
}

TEST(SimdKernels, Avx2ReceiverScansEqualScalar)
{
    if (!avx2_available())
        GTEST_SKIP() << no_avx2;
    expect_receiver_scans_equal_scalar(detail::kernels_for(Backend::avx2), "avx2-vs-scalar");
}

TEST(SimdKernels, Avx512ReceiverScansEqualScalar)
{
    if (!avx512_available())
        GTEST_SKIP() << no_avx512;
    expect_receiver_scans_equal_scalar(detail::kernels_for(Backend::avx512),
                                       "avx512-vs-scalar");
}

TEST(SimdKernels, LaneKernelsStayWithinFastErrorBounds)
{
    // Belt and braces on top of bit-equality: the atan2 lanes inherit
    // the scalar fast kernel's measured error bound against libm
    // (tests/util/fastmath_test.cpp).  A 10x slack keeps this from
    // duplicating that test's tight calibration while still catching a
    // wrong-polynomial regression immediately.
    const std::size_t n = 20000;
    const std::vector<double> y = random_range(n, -5.0, 5.0, 0x91);
    const std::vector<double> x = random_range(n, -5.0, 5.0, 0x92);
    const std::vector<double> samples = atan2_through_diff_arg(y, x);
    std::vector<double> out(2 * n);
    diff_arg_batch(samples.data(), 2 * n, out.data());
    for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(out[2 * k], std::atan2(y[k], x[k]), 1e-10);
        // The odd transition is arg(conj(z)).
        ASSERT_NEAR(out[2 * k + 1], std::atan2(-y[k], x[k]), 1e-10);
    }
}

} // namespace
} // namespace anc::simd
