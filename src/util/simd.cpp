#include "util/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <string_view>

#include "util/cpu_features.h"
#include "util/fastmath.h"
#include "util/rng.h"
#include "util/simd_kernels.inl"

// Dispatchers and the scalar table.  This TU is compiled at the baseline
// architecture, so every function here runs on any x86-64 (or non-x86)
// machine; the lane tables in simd_kernels_avx2.cpp /
// simd_kernels_avx512.cpp are only ever reached through kernels_for().
//
// The scalar kernels ARE the fast kernels, looped — the "guaranteed
// scalar fallback" of the dispatch contract, which is what makes the
// fast profile's output identical on every backend (see util/simd.h).
// The pilot scans come from simd_kernels.inl, the one source all three
// tables compile.

namespace anc::simd {

namespace detail {

namespace {

/// wrap_phase_bounded with branchless control flow — the same kernel the
/// interference decoder's fast path uses (value-identical to
/// wrap_phase_bounded on |angle| <= 2*pi, boundary cases included).
inline double wrap_branchless(double angle)
{
    constexpr double two_pi = 2.0 * std::numbers::pi;
    const double up = angle <= -std::numbers::pi ? two_pi : 0.0;
    const double down = angle > std::numbers::pi ? two_pi : 0.0;
    return angle + up - down;
}

inline double distance_branchless(double a, double b)
{
    return std::abs(wrap_branchless(a - b));
}

template <bool Reciprocal>
inline double per_window(double x, const Window_divisor& divisor)
{
    return Reciprocal ? x * divisor.inv_w : x / divisor.w;
}

/// ORs flag(i), evaluated in order, into bit first + i of the mask for
/// i in [0, count), assembling a word at a time.
template <class Flag>
void set_bits(std::uint64_t* mask, std::size_t first, std::size_t count, Flag flag)
{
    for (std::size_t i = 0; i < count;) {
        const std::size_t offset = (first + i) & 63;
        const std::size_t n = std::min(64 - offset, count - i);
        std::uint64_t word = 0;
        std::uint64_t bit = std::uint64_t{1} << offset;
        for (std::size_t k = 0; k < n; ++k, bit <<= 1)
            word |= bit & (0 - std::uint64_t{flag(i + k)});
        mask[(first + i) >> 6] |= word;
        i += n;
    }
}

template <bool Reciprocal>
void window_mean_mask_loop(const double* sums, std::size_t count,
                           const Window_divisor& divisor, double threshold,
                           std::uint64_t* mask, std::size_t first)
{
    set_bits(mask, first, count, [&](std::size_t i) {
        return per_window<Reciprocal>(sums[i], divisor) > threshold;
    });
}

template <bool Reciprocal>
double excess_variance_mask_loop(const double* sums, const double* sum_sqs,
                                 std::size_t count, const Window_divisor& divisor,
                                 double sigma2, double threshold, double peak,
                                 std::uint64_t* mask, std::size_t first)
{
    set_bits(mask, first, count, [&](std::size_t i) {
        const double mean = per_window<Reciprocal>(sums[i], divisor);
        // Population variance; clamp tiny negatives from cancellation
        // (the comparison form keeps a -0.0, as the historical
        // `if (variance < 0.0) variance = 0.0;` did).
        double variance = per_window<Reciprocal>(sum_sqs[i], divisor) - mean * mean;
        variance = variance < 0.0 ? 0.0 : variance;
        // Variance a clean constant-envelope signal of this power would
        // show: cross term 2*|s|^2*sigma^2 plus the noise-energy variance
        // sigma^4.  (|s|^2 ~ window mean minus the noise floor.)
        const double signal_power = std::max(mean - sigma2, 1e-12);
        const double clean_variance = 2.0 * signal_power * sigma2 + sigma2 * sigma2;
        const double ratio = variance / clean_variance;
        peak = std::max(peak, ratio);
        return ratio > threshold;
    });
    return peak;
}

void anc_candidates_batch_scalar(const double* interleaved_samples,
                                 std::size_t count, double a, double b,
                                 double* theta_plus, double* theta_minus,
                                 double* phi_minus, double* phi_plus)
{
    // The fast profile's candidate loop (the decoder's historical fast
    // path, now with this as its single source of truth): the four
    // Eq. 7 candidates factor through arg(y) — with T = A+Bd+iB√ and
    // P = B+Ad+iA√, theta± = arg(y) ± arg(T) and phi∓ = arg(y) ∓ arg(P)
    // (arg of a product is the wrapped sum of args).  Three atan2 per
    // sample instead of four, and arg(T), arg(P) live in [0, π]
    // (√ ≥ 0), so every sum is in (−2π, 2π) — the exact domain of the
    // branch-only wrap.  The iterations are independent and
    // branch-light, so the atan2 calls pipeline across samples.
    const double a2b2 = a * a + b * b;
    const double inv_2ab = 1.0 / (2.0 * a * b);
    for (std::size_t i = 0; i < count; ++i) {
        const double re = interleaved_samples[2 * i];
        const double im = interleaved_samples[2 * i + 1];
        const double norm = re * re + im * im;
        const double d_raw = (norm - a2b2) * inv_2ab;
        const double d = std::clamp(d_raw, -1.0, 1.0);
        const double root = std::sqrt(std::max(1.0 - d * d, 0.0));
        const double wy = fast_atan2(im, re);
        const double wt = fast_atan2(b * root, a + b * d);
        const double wp = fast_atan2(a * root, b + a * d);
        theta_plus[i] = wrap_branchless(wy + wt);
        theta_minus[i] = wrap_branchless(wy - wt);
        phi_minus[i] = wrap_branchless(wy - wp);
        phi_plus[i] = wrap_branchless(wy + wp);
    }
}

void anc_select_batch_scalar(const double* theta_plus, const double* theta_minus,
                             const double* phi_minus, const double* phi_plus,
                             const double* known_diffs, std::size_t transitions,
                             double* phi_out, double* error_out)
{
    const double* tp = theta_plus;
    const double* tm = theta_minus;
    const double* pm = phi_minus;
    const double* pp = phi_plus;
    for (std::size_t n = 0; n < transitions; ++n) {
        const double known = known_diffs[n];
        const auto error_of = [known](double theta_next, double theta_cur) {
            return distance_branchless(wrap_branchless(theta_next - theta_cur),
                                       known);
        };
        // The four candidates in the exact path's iteration order (next
        // 0/1 x cur 0/1), reduced with strict-< so the earliest minimum
        // wins ties exactly as the sequential scan does.
        const double e00 = error_of(tp[n + 1], tp[n]);
        const double e01 = error_of(tp[n + 1], tm[n]);
        const double e10 = error_of(tm[n + 1], tp[n]);
        const double e11 = error_of(tm[n + 1], tm[n]);
        const double p00 = wrap_branchless(pm[n + 1] - pm[n]);
        const double p01 = wrap_branchless(pm[n + 1] - pp[n]);
        const double p10 = wrap_branchless(pp[n + 1] - pm[n]);
        const double p11 = wrap_branchless(pp[n + 1] - pp[n]);
        const bool b01 = e01 < e00;
        const double ea = b01 ? e01 : e00;
        const double pa = b01 ? p01 : p00;
        const bool b11 = e11 < e10;
        const double eb = b11 ? e11 : e10;
        const double pb = b11 ? p11 : p10;
        const bool bb = eb < ea;
        phi_out[n] = bb ? pb : pa;
        error_out[n] = bb ? eb : ea;
    }
}

void diff_arg_batch_scalar(const double* interleaved_samples,
                           std::size_t transitions, double* out)
{
    for (std::size_t n = 0; n < transitions; ++n) {
        const double ar = interleaved_samples[2 * n];
        const double ai = interleaved_samples[2 * n + 1];
        const double br = interleaved_samples[2 * n + 2];
        const double bi = interleaved_samples[2 * n + 3];
        // arg(next * conj(cur)), with the products std::complex
        // multiplication performs.
        out[n] = fast_atan2(br * -ai + bi * ar, br * ar - bi * -ai);
    }
}

void counter_normal_add_scaled_scalar(std::uint64_t key_a, std::uint64_t key_b,
                                      std::uint64_t first_counter, double scale,
                                      double* inout, std::size_t count)
{
    // inout[i] += scale * z: the float draw widened (exactly) to double,
    // then a multiply and an add, no FMA.
    std::size_t i = 0;
    float z0 = 0.0f;
    float z1 = 0.0f;
    for (; i + 2 <= count; i += 2) {
        anc::detail::counter_normal_pair(key_a, key_b, first_counter + i / 2, z0, z1);
        inout[i] += scale * static_cast<double>(z0);
        inout[i + 1] += scale * static_cast<double>(z1);
    }
    if (i < count) {
        anc::detail::counter_normal_pair(key_a, key_b, first_counter + i / 2, z0, z1);
        inout[i] += scale * static_cast<double>(z0);
    }
}

void cmul_accumulate_scalar(const double* interleaved_in,
                            const double* interleaved_rotors,
                            double* interleaved_acc, std::size_t samples)
{
    // Per-element arithmetic of the historical fixed-gain loop
    // (channel/link.cpp), with the rotor read from the cached stream.
    for (std::size_t i = 0; i < samples; ++i) {
        const double re = interleaved_in[2 * i];
        const double im = interleaved_in[2 * i + 1];
        const double rr = interleaved_rotors[2 * i];
        const double ri = interleaved_rotors[2 * i + 1];
        interleaved_acc[2 * i] += re * rr - im * ri;
        interleaved_acc[2 * i + 1] += re * ri + im * rr;
    }
}

void cmul_fade_accumulate_scalar(const double* interleaved_in,
                                 const double* interleaved_rotors, double* interleaved_acc,
                                 std::size_t samples, double fade_re, double fade_im)
{
    // The historical faded-link loop (channel/link.cpp),
    // out[n] += signal[n] * rotor[n] * fade: the two std::complex
    // products, in that order.
    for (std::size_t i = 0; i < samples; ++i) {
        const double re = interleaved_in[2 * i];
        const double im = interleaved_in[2 * i + 1];
        const double rr = interleaved_rotors[2 * i];
        const double ri = interleaved_rotors[2 * i + 1];
        const double tr = re * rr - im * ri;
        const double ti = re * ri + im * rr;
        interleaved_acc[2 * i] += tr * fade_re - ti * fade_im;
        interleaved_acc[2 * i + 1] += tr * fade_im + ti * fade_re;
    }
}

void window_mean_mask_scalar(const double* sums, std::size_t count,
                             const Window_divisor& divisor, double threshold,
                             std::uint64_t* mask, std::size_t first)
{
    if (divisor.reciprocal)
        window_mean_mask_loop<true>(sums, count, divisor, threshold, mask, first);
    else
        window_mean_mask_loop<false>(sums, count, divisor, threshold, mask, first);
}

double excess_variance_mask_scalar(const double* sums, const double* sum_sqs,
                                   std::size_t count, const Window_divisor& divisor,
                                   double sigma2, double threshold, double peak,
                                   std::uint64_t* mask, std::size_t first)
{
    if (divisor.reciprocal)
        return excess_variance_mask_loop<true>(sums, sum_sqs, count, divisor, sigma2,
                                               threshold, peak, mask, first);
    return excess_variance_mask_loop<false>(sums, sum_sqs, count, divisor, sigma2,
                                            threshold, peak, mask, first);
}

void msk_decide_scalar(const double* interleaved_samples, std::size_t transitions,
                       std::uint8_t* bits)
{
    const double* data = interleaved_samples;
    for (std::size_t n = 0; n < transitions; ++n) {
        // The historical rule is arg(y[n+1] * conj(y[n])) >= 0 — h and
        // gamma cancel (Eq. 1), so no channel estimate is needed.  atan2
        // is monotone in the quadrant structure, so the decision only
        // depends on the signs of the ratio's parts:
        //   im > 0            -> arg in (0, pi)      -> 1
        //   im < 0            -> arg in (-pi, 0)     -> 0
        //   im == +0.0        -> arg is +0 or +pi    -> 1
        //   im == -0.0        -> arg is -0 (re >= +0) or -pi (re < 0)
        //                        and -0.0 >= 0.0 holds -> signbit(re)
        // The products below are exactly the ones std::complex
        // multiplication performs, so the computed im/re match the old
        // path bit for bit (samples are finite throughout the substrate;
        // a NaN ratio decides 0, on every backend).
        const double ar = data[2 * n];
        const double ai = data[2 * n + 1];
        const double br = data[2 * n + 2];
        const double bi = data[2 * n + 3];
        const double im = br * -ai + bi * ar;
        bool one = im > 0.0;
        if (im == 0.0) {
            if (!std::signbit(im)) {
                one = true;
            } else {
                const double re = br * ar - bi * -ai;
                one = !std::signbit(re);
            }
        }
        bits[n] = one ? 1 : 0;
    }
}

} // namespace

Window_divisor window_divisor(std::size_t window)
{
    const auto w = static_cast<double>(window);
    return {w, 1.0 / w, (window & (window - 1)) == 0};
}

constinit const Kernel_table scalar_kernels{
    .width = 1,
    .anc_candidates_batch = anc_candidates_batch_scalar,
    .anc_select_batch = anc_select_batch_scalar,
    .diff_arg_batch = diff_arg_batch_scalar,
    .cmul_accumulate = cmul_accumulate_scalar,
    .cmul_fade_accumulate = cmul_fade_accumulate_scalar,
    .msk_decide = msk_decide_scalar,
    .counter_normal_add_scaled = counter_normal_add_scaled_scalar,
    .window_mean_mask = window_mean_mask_scalar,
    .excess_variance_mask = excess_variance_mask_scalar,
    .pilot_scan_starts = pilot_scan_starts,
    .pilot_scan_striped = pilot_scan_striped,
};

const Kernel_table& kernels_for([[maybe_unused]] Backend backend)
{
#if defined(__x86_64__)
    switch (backend) {
    case Backend::avx512: return avx512_kernels;
    case Backend::avx2: return avx2_kernels;
    case Backend::scalar: break;
    }
#endif
    return scalar_kernels;
}

const Kernel_table& active_kernels()
{
    static const Kernel_table& table = kernels_for(active_backend());
    return table;
}

} // namespace detail

Backend resolve_backend(bool cpu_has_avx2, bool cpu_has_fma, bool cpu_has_avx512f,
                        bool force_scalar, bool force_avx2)
{
    if (force_scalar || !cpu_has_avx2 || !cpu_has_fma)
        return Backend::scalar;
    if (force_avx2 || !cpu_has_avx512f)
        return Backend::avx2;
    return Backend::avx512;
}

namespace {

bool env_flag(const char* name)
{
    const char* env = std::getenv(name);
    return env != nullptr && *env != '\0' && std::string_view{env} != "0";
}

} // namespace

bool force_scalar_from_env() { return env_flag("ANC_FORCE_SCALAR_SIMD"); }

bool force_avx2_from_env() { return env_flag("ANC_FORCE_AVX2_SIMD"); }

Backend active_backend()
{
    // Decided once per run: CPUID does not change under a process, and a
    // stable decision is what makes the fast profile's determinism
    // arguments ("bit-identical at any thread count") trivially hold.
    static const Backend backend = resolve_backend(
        cpu_features().avx2, cpu_features().fma, cpu_features().avx512f,
        force_scalar_from_env(), force_avx2_from_env());
    return backend;
}

bool kernels_active()
{
    return active_backend() != Backend::scalar;
}

// ---------------------------------------------------------- dispatchers

void anc_candidates_batch(const double* interleaved_samples, std::size_t count,
                          double a, double b, double* theta_plus,
                          double* theta_minus, double* phi_minus, double* phi_plus)
{
    dispatch(count, &detail::Kernel_table::anc_candidates_batch,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 kernel(interleaved_samples + 2 * at, m, a, b, theta_plus + at,
                        theta_minus + at, phi_minus + at, phi_plus + at);
             });
}

void anc_select_batch(const double* theta_plus, const double* theta_minus,
                      const double* phi_minus, const double* phi_plus,
                      const double* known_diffs, std::size_t transitions,
                      double* phi_out, double* error_out)
{
    dispatch(transitions, &detail::Kernel_table::anc_select_batch,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 kernel(theta_plus + at, theta_minus + at, phi_minus + at, phi_plus + at,
                        known_diffs + at, m, phi_out + at, error_out + at);
             });
}

void diff_arg_batch(const double* interleaved_samples, std::size_t transitions,
                    double* out)
{
    dispatch(transitions, &detail::Kernel_table::diff_arg_batch,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 kernel(interleaved_samples + 2 * at, m, out + at);
             });
}

void cmul_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                     double* interleaved_acc, std::size_t samples)
{
    dispatch(samples, &detail::Kernel_table::cmul_accumulate,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 kernel(interleaved_in + 2 * at, interleaved_rotors + 2 * at,
                        interleaved_acc + 2 * at, m);
             });
}

void cmul_fade_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                          double* interleaved_acc, std::size_t samples, double fade_re,
                          double fade_im)
{
    dispatch(samples, &detail::Kernel_table::cmul_fade_accumulate,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 kernel(interleaved_in + 2 * at, interleaved_rotors + 2 * at,
                        interleaved_acc + 2 * at, m, fade_re, fade_im);
             });
}

void window_mean_mask(const double* sums, std::size_t windows, std::size_t window,
                      double threshold, std::uint64_t* mask)
{
    const detail::Window_divisor divisor = detail::window_divisor(window);
    std::fill_n(mask, (windows + 63) / 64, std::uint64_t{0});
    dispatch(windows, &detail::Kernel_table::window_mean_mask,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 kernel(sums + at, m, divisor, threshold, mask, at);
             });
}

double excess_variance_mask(const double* sums, const double* sum_sqs,
                            std::size_t windows, std::size_t window, double sigma2,
                            double threshold, std::uint64_t* mask)
{
    const detail::Window_divisor divisor = detail::window_divisor(window);
    std::fill_n(mask, (windows + 63) / 64, std::uint64_t{0});
    // The peak of positive ratios has one bit pattern whatever order the
    // lanes visit them in (NaN ratios never win a max), so the lane
    // tiers may keep per-lane peaks.
    double peak = 1e-12;
    dispatch(windows, &detail::Kernel_table::excess_variance_mask,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 peak = kernel(sums + at, sum_sqs + at, m, divisor, sigma2, threshold,
                               peak, mask, at);
             });
    return peak;
}

void msk_decide(const double* interleaved_samples, std::size_t transitions,
                std::uint8_t* bits)
{
    dispatch(transitions, &detail::Kernel_table::msk_decide,
             [&](auto kernel, std::size_t at, std::size_t m) {
                 kernel(interleaved_samples + 2 * at, m, bits + at);
             });
}

} // namespace anc::simd
