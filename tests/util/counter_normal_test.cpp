// Statistical and determinism locks for the counter-based normal
// generator behind the fast math profile's noise (util/rng.h).
//
//   - moment sanity: mean/variance/skew/kurtosis of a large sample
//   - Kolmogorov-Smirnov distance against the exact normal CDF
//   - stream independence: distinct (seed, stream) keys decorrelate
//   - purity / replay determinism: any carving of the counter range
//     across 1, 4, or 8 threads reproduces the serial draw bit-for-bit
//
// The draws are read through add_scaled(first, 1.0, zeros, count):
// 0.0 + 1.0·z == z.

#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace anc {
namespace {

std::vector<double> draw(const Counter_normal& gen, std::size_t count)
{
    std::vector<double> out(count, 0.0);
    gen.add_scaled(0, 1.0, out.data(), count);
    return out;
}

TEST(CounterNormal, MomentsMatchStandardNormal)
{
    const Counter_normal gen{42, 1};
    const std::vector<double> xs = draw(gen, 400000);
    const double n = static_cast<double>(xs.size());
    double mean = 0.0;
    for (const double x : xs)
        mean += x;
    mean /= n;
    double m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (const double x : xs) {
        const double d = x - mean;
        m2 += d * d;
        m3 += d * d * d;
        m4 += d * d * d * d;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(m2, 1.0, 0.02);
    EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 0.03); // skewness
    EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.08);         // kurtosis
}

TEST(CounterNormal, KolmogorovSmirnovAgainstNormalCdf)
{
    const Counter_normal gen{7, 3};
    std::vector<double> xs = draw(gen, 200000);
    std::sort(xs.begin(), xs.end());
    const double n = static_cast<double>(xs.size());
    double ks = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double cdf = 0.5 * std::erfc(-xs[i] / std::numbers::sqrt2);
        const double lo = static_cast<double>(i) / n;
        const double hi = static_cast<double>(i + 1) / n;
        ks = std::max({ks, std::abs(cdf - lo), std::abs(cdf - hi)});
    }
    // KS 99.9% critical value ~ 1.95/sqrt(n) ~ 0.0044 at n=200k; a
    // deterministic draw either passes forever or is genuinely broken.
    EXPECT_LT(ks, 1.95 / std::sqrt(n));
}

TEST(CounterNormal, DistinctStreamsAreUncorrelated)
{
    const Counter_normal a{1234, 0};
    const Counter_normal b{1234, 1}; // same seed, different stream
    const Counter_normal c{1235, 0}; // different seed, same stream
    const std::size_t n = 200000;
    const std::vector<double> xa = draw(a, n);
    const std::vector<double> xb = draw(b, n);
    const std::vector<double> xc = draw(c, n);
    const auto correlation = [n](const std::vector<double>& u,
                                 const std::vector<double>& v) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            sum += u[i] * v[i];
        return sum / static_cast<double>(n);
    };
    // Corr of iid N(0,1) pairs ~ N(0, 1/n): 4.5 sigma ~ 0.01 at n=200k.
    EXPECT_LT(std::abs(correlation(xa, xb)), 0.01);
    EXPECT_LT(std::abs(correlation(xa, xc)), 0.01);
    // And the streams are genuinely different draws.
    EXPECT_NE(xa[0], xb[0]);
    EXPECT_NE(xa[0], xc[0]);
}

TEST(CounterNormal, PairIsPureInCounter)
{
    const Counter_normal gen{99, 17};
    double z0 = 0.0, z1 = 0.0;
    gen.pair(123456, z0, z1);
    // Draw a pile of other counters in between; the draw must not move.
    double w0 = 0.0, w1 = 0.0;
    for (std::uint64_t c = 0; c < 1000; ++c)
        gen.pair(c, w0, w1);
    double again0 = 0.0, again1 = 0.0;
    gen.pair(123456, again0, again1);
    EXPECT_EQ(z0, again0);
    EXPECT_EQ(z1, again1);
}

TEST(CounterNormal, ThreadedFillReplaysSerialBitForBit)
{
    const Counter_normal gen{2718, 28};
    const std::size_t count = 64 * 1024;
    const std::vector<double> serial = draw(gen, count);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        std::vector<double> parallel(count, 0.0);
        std::vector<std::thread> workers;
        // Carve the buffer into per-thread spans on pair (2-sample)
        // boundaries; each worker fills its span from the matching
        // counter offset — the order-independence the generator promises.
        const std::size_t pairs = count / 2;
        const std::size_t pairs_per_thread = (pairs + threads - 1) / threads;
        for (std::size_t t = 0; t < threads; ++t) {
            const std::size_t first_pair = t * pairs_per_thread;
            const std::size_t last_pair = std::min(pairs, first_pair + pairs_per_thread);
            if (first_pair >= last_pair)
                continue;
            workers.emplace_back([&, first_pair, last_pair] {
                gen.add_scaled(first_pair, 1.0, parallel.data() + 2 * first_pair,
                               2 * (last_pair - first_pair));
            });
        }
        for (std::thread& worker : workers)
            worker.join();
        EXPECT_EQ(parallel, serial) << threads << " threads";
    }
}

TEST(CounterNormal, SimdAddScaledIsBitCompatibleWithScalar)
{
    // The lane backends' contract (util/simd.h): same (key, counter) ->
    // same normals, whether the AVX2/AVX-512 lanes or the scalar fallback
    // served the call.  add_scaled_simd must therefore reproduce
    // add_scaled() exactly — including lengths below one lane block, odd
    // lengths (the scalar tail) and non-zero counter origins.
    for (const Counter_normal& gen : {Counter_normal{2024, 6}, Counter_normal{31415, 92}}) {
        for (const std::size_t count :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, std::size_t{64}, std::size_t{1001}, std::size_t{1234},
              std::size_t{4096}}) {
            for (const std::uint64_t first :
                 {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{17}}) {
                std::vector<double> base(count);
                for (std::size_t i = 0; i < count; ++i)
                    base[i] = 0.25 * static_cast<double>(i % 17) - 2.0;
                std::vector<double> scalar = base;
                std::vector<double> simd = base;
                gen.add_scaled(first, 0.7071, scalar.data(), count);
                gen.add_scaled_simd(first, 0.7071, simd.data(), count);
                EXPECT_EQ(simd, scalar) << "count " << count << " first_counter " << first;
            }
        }
    }
}

} // namespace
} // namespace anc
