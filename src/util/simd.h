// The explicit SIMD lane-kernel backend behind dsp::Math_profile::fast.
//
// Design contract — *bit-compatibility with the scalar fast kernels*:
// every batch kernel here computes, per element, exactly the arithmetic
// of its scalar counterpart in util/fastmath.h / util/rng.h (same
// operations, same order, no FMA contraction in the value chains), just
// four or eight lanes at a time.  IEEE-754 arithmetic is deterministic,
// so the AVX-512 lanes, the AVX2 lanes and the scalar fallback all
// produce byte-identical values.  That one invariant buys the whole
// validation story:
//
//   * the fast profile's statistical corridors hold on every backend
//     (the emitted metrics are bit-identical, only the throughput
//     differs);
//   * dispatch is *safe to decide per run*: a run on an AVX-512 box, a
//     run under ANC_FORCE_AVX2_SIMD=1 or ANC_FORCE_SCALAR_SIMD=1, and a
//     run on a machine without AVX2 emit byte-identical documents;
//   * the lane-vs-scalar tests (tests/util/simd_kernels_test.cpp) can
//     assert exact equality — the strongest possible ULP bound (0).
//
// Dispatch model: `active_backend()` is decided once per process from
// anc::cpu_features() (AVX2 and FMA both required; AVX-512F upgrades to
// the 8-wide lanes) and two environment overrides: ANC_FORCE_SCALAR_SIMD
// (any non-empty value other than "0" forces the scalar fallback) and
// ANC_FORCE_AVX2_SIMD (same rule; caps the backend at avx2 on AVX-512
// hardware).  The overrides keep every tier continuously tested on the
// widest hardware, in CI and locally; force-scalar wins when both are
// set.  The batch entry points below branch on the decision internally
// (see dispatch()), so they are valid to call everywhere and merely
// resolve to the best implementation available.
//
// The lane kernels are written once, in src/util/simd_kernels.inl, as
// templates over a lane-width trait, and compiled twice:
// simd_kernels_avx2.cpp (Lanes<4>, -mavx2 -mfma) and
// simd_kernels_avx512.cpp (Lanes<8>, -mavx512f), both under
// -ffp-contract=off so the compiler cannot fuse the mul/add chains the
// bit-compatibility contract pins down.  Those are the only translation
// units built above the baseline ISA; everything in them has internal
// linkage except the detail::*_avx2 / *_avx512 entry points, and nothing
// there is reachable without passing through the dispatchers.

#pragma once

#include <cstddef>
#include <cstdint>

namespace anc::simd {

/// Which implementation the batch kernels resolve to this run.
enum class Backend {
    scalar, ///< the existing fast kernels, looped — guaranteed everywhere
    avx2,   ///< explicit AVX2+FMA lanes (4 doubles wide)
    avx512, ///< the same lanes at AVX-512F width (8 doubles wide)
};

inline const char* to_string(Backend backend)
{
    switch (backend) {
    case Backend::avx512: return "avx512";
    case Backend::avx2: return "avx2";
    case Backend::scalar: break;
    }
    return "scalar";
}

/// The pure dispatch rule: scalar when forced or when the CPU lacks
/// AVX2+FMA (the avx2 TU is compiled with -mavx2 -mfma); avx512 when the
/// CPU additionally reports AVX-512F and no cap is in force; avx2
/// otherwise.  Force-scalar beats force-avx2.  Exposed separately from
/// active_backend() so the decision logic is unit-testable without
/// faking CPUID or the environment.
Backend resolve_backend(bool cpu_has_avx2, bool cpu_has_fma, bool cpu_has_avx512f,
                        bool force_scalar, bool force_avx2);

/// True when ANC_FORCE_SCALAR_SIMD is set to a non-empty value other
/// than "0" in this process's environment.
bool force_scalar_from_env();

/// True when ANC_FORCE_AVX2_SIMD is set to a non-empty value other than
/// "0" in this process's environment (caps avx512 hardware at avx2).
bool force_avx2_from_env();

/// The backend every batch kernel below uses, decided once per run
/// (first call) from cpu_features(), ANC_FORCE_SCALAR_SIMD, and
/// ANC_FORCE_AVX2_SIMD.
Backend active_backend();

/// active_backend() != Backend::scalar — some lane kernel TU is in use.
bool kernels_active();

/// The widest prefix of n lane elements the active backend takes in
/// full blocks: a multiple of 8 for avx512, of 4 for avx2, 0 for scalar.
std::size_t lane_head(std::size_t n);

/// The split every batch dispatcher shares (simd.cpp, util/rng.cpp):
/// the active backend's lane kernel (`avx512` or `avx2`) runs over the
/// full-block head of the n elements, `scalar` over the rest, each as
/// call(kernel, at, count) on elements [at, at + count).  An element is
/// `Per_lane` consecutive values of the caller's buffers (2 where one
/// lane produces a pair of values).  All tiers are element-wise
/// identical, so the split point is invisible in the output.
template <std::size_t Per_lane = 1, class Lane_kernel, class Scalar_kernel, class Call>
void dispatch(std::size_t n, Lane_kernel avx512, Lane_kernel avx2, Scalar_kernel scalar,
              Call&& call)
{
    const std::size_t head = Per_lane * lane_head(n / Per_lane);
    if (head != 0)
        call(active_backend() == Backend::avx512 ? avx512 : avx2, std::size_t{0}, head);
    call(scalar, head, n - head);
}

// ------------------------------------------------------------- kernels
// All kernels accept any n; the lane paths handle the full 8-wide
// (avx512) or 4-wide (avx2) blocks and hand the tail to the scalar
// fallback (which is element-wise identical, so the seam is invisible
// in the output).

/// The Eq. 7 candidate generation of the interference decoder, SoA: for
/// each interleaved complex sample y, emit the four wrapped candidate
/// phases (theta+, theta-, phi-, phi+) into split arrays.  Element-wise
/// identical to the fast profile's candidate loop
/// (core/interference_decoder.cpp).
void anc_candidates_batch(const double* interleaved_samples, std::size_t count,
                          double a, double b, double* theta_plus,
                          double* theta_minus, double* phi_minus,
                          double* phi_plus);

/// The Eq. 8 branchless candidate selection over the split arrays: for
/// transition n (0-based), pick among the four (theta, phi) difference
/// candidates the one whose theta step best matches known_diffs[n], with
/// the exact iteration-order tie-break of the sequential scan.  Writes
/// phi_out[n] and error_out[n] for n in [0, transitions).
void anc_select_batch(const double* theta_plus, const double* theta_minus,
                      const double* phi_minus, const double* phi_plus,
                      const double* known_diffs, std::size_t transitions,
                      double* phi_out, double* error_out);

/// Differential demodulation over the unknown region: out[n] =
/// fast_atan2 of y[n+1]·conj(y[n]) for n in [0, transitions), reading
/// interleaved samples [0, transitions].
void diff_arg_batch(const double* interleaved_samples, std::size_t transitions,
                    double* out);

/// The drift-free channel accumulate (Link_channel's constant-rotor
/// path) over interleaved complex buffers:
///   acc[2i]   += in[2i]·re − in[2i+1]·im
///   acc[2i+1] += in[2i]·im + in[2i+1]·re     for i in [0, samples).
/// Element-wise independent mul/add with no FMA contraction, so the
/// lane tiers are bit-identical to the scalar loop.
void rotor_accumulate(const double* interleaved_in, double* interleaved_acc,
                      std::size_t samples, double rotor_re, double rotor_im);

/// The drifting-channel accumulate over a precomputed rotor stream
/// (Link_channel caches rotor_n = polar(gain, phase + drift·n) per link,
/// so each rotation is evaluated once per link, not per transmission):
///   acc[2i]   += in[2i]·rot[2i] − in[2i+1]·rot[2i+1]
///   acc[2i+1] += in[2i]·rot[2i+1] + in[2i+1]·rot[2i]
/// i.e. element-wise complex multiply-accumulate, bit-identical across
/// tiers (mul/sub/add per element, no FMA, no reassociation).
void cmul_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                     double* interleaved_acc, std::size_t samples);

// Receiver scans (§7.1 detectors, §5 demodulation).  Like the channel
// accumulators these serve both math profiles, and every backend
// reproduces the historical scalar loops bit for bit.  The
// detector kernels read the sliding-window sums of |y|^2 (and |y|^4)
// that dsp::window_energy_sums_into produces and set bit n of `mask`
// (words [0, ceil(windows / 64)), overwritten) when window n passes.

/// The packet detector's threshold test: bit n is set iff the mean
/// sums[n] / window > threshold.
void window_mean_mask(const double* sums, std::size_t windows, std::size_t window,
                      double threshold, std::uint64_t* mask);

/// The interference analyzer's excess-variance test.  Per window:
///   mean     = sum / w;  variance = sum_sq / w − mean², clamped at 0
///   ratio    = variance / (2·max(mean − σ², 1e-12)·σ² + σ²·σ²)
/// with the scalar operand order of phy/detector.cpp.  Bit n is set iff
/// ratio > threshold; returns max(1e-12, every non-NaN ratio).
double excess_variance_mask(const double* sums, const double* sum_sqs,
                            std::size_t windows, std::size_t window, double sigma2,
                            double threshold, std::uint64_t* mask);

/// MSK hard decisions (dsp::Msk_demodulator): bits[n] = 1 iff
/// arg(y[n+1]·conj(y[n])) >= 0, decided from the sign structure of the
/// ratio's parts, for n in [0, transitions) over interleaved samples
/// [0, transitions].
void msk_decide(const double* interleaved_samples, std::size_t transitions,
                std::uint8_t* bits);

namespace detail {

/// The per-window divide of the detectors' finalize: x / w, or
/// x · inv_w when w is a power of two.  x/2^k and x·2^-k round
/// identically for every double (both only scale the exponent), so the
/// multiply gives the divide's bits at a fraction of the cost.
struct Window_divisor {
    double w;
    double inv_w;
    bool reciprocal;
};

Window_divisor window_divisor(std::size_t window);

// Per-backend entry points, exposed so the tests can compare the
// implementations directly on the same machine.  The *_avx2 functions
// live in the -mavx2 -mfma translation unit and must only be called
// when cpu_features() reports avx2 && fma; the *_avx512 functions live
// in the -mavx512f translation unit and must only be called when
// cpu_features() reports avx512f too (non-x86 builds link abort()ing
// stubs).  Each additionally requires the stated block alignment of n
// (the dispatchers feed tails to the scalar path).

void anc_candidates_batch_scalar(const double* interleaved_samples,
                                 std::size_t count, double a, double b,
                                 double* theta_plus, double* theta_minus,
                                 double* phi_minus, double* phi_plus);
void anc_select_batch_scalar(const double* theta_plus, const double* theta_minus,
                             const double* phi_minus, const double* phi_plus,
                             const double* known_diffs, std::size_t transitions,
                             double* phi_out, double* error_out);
void diff_arg_batch_scalar(const double* interleaved_samples,
                           std::size_t transitions, double* out);
void rotor_accumulate_scalar(const double* interleaved_in,
                             double* interleaved_acc, std::size_t samples,
                             double rotor_re, double rotor_im);
void cmul_accumulate_scalar(const double* interleaved_in,
                            const double* interleaved_rotors,
                            double* interleaved_acc, std::size_t samples);

// The receiver-scan kernels take windows [0, count) of the offset
// `sums`/`sum_sqs` and OR window i's bit into bit first + i of `mask`
// (the dispatcher zeroes the words; the lane tiers need first % 64 == 0
// and count a multiple of their width).  excess_variance_mask_* return
// the running peak continued from `peak` (lanes keep one peak each, so
// they equal the scalar loop for a positive `peak`).
void window_mean_mask_scalar(const double* sums, std::size_t count,
                             const Window_divisor& divisor, double threshold,
                             std::uint64_t* mask, std::size_t first);
double excess_variance_mask_scalar(const double* sums, const double* sum_sqs,
                                   std::size_t count, const Window_divisor& divisor,
                                   double sigma2, double threshold, double peak,
                                   std::uint64_t* mask, std::size_t first);
void msk_decide_scalar(const double* interleaved_samples, std::size_t transitions,
                       std::uint8_t* bits);

// n % 4 == 0 for all of these.
void anc_candidates_batch_avx2(const double* interleaved_samples, std::size_t count,
                               double a, double b, double* theta_plus,
                               double* theta_minus, double* phi_minus,
                               double* phi_plus);
void anc_select_batch_avx2(const double* theta_plus, const double* theta_minus,
                           const double* phi_minus, const double* phi_plus,
                           const double* known_diffs, std::size_t transitions,
                           double* phi_out, double* error_out);
void diff_arg_batch_avx2(const double* interleaved_samples, std::size_t transitions,
                         double* out);

/// Counter_normal's batched Box–Muller: 4 counter pairs (8 normals) per
/// step, bit-identical to Counter_normal::fill at the same counters.
/// count % 8 == 0; the dispatcher (util/rng.cpp) handles tails.
void counter_normal_fill_avx2(std::uint64_t key_a, std::uint64_t key_b,
                              std::uint64_t first_counter, double* out,
                              std::size_t count);
/// Fused inout[i] += scale·z_i over the same z stream; count % 8 == 0.
void counter_normal_add_scaled_avx2(std::uint64_t key_a, std::uint64_t key_b,
                                    std::uint64_t first_counter, double scale,
                                    double* inout, std::size_t count);
/// samples % 2 == 0 (2 interleaved complex per 256-bit vector).
void rotor_accumulate_avx2(const double* interleaved_in, double* interleaved_acc,
                           std::size_t samples, double rotor_re, double rotor_im);
/// samples % 2 == 0.
void cmul_accumulate_avx2(const double* interleaved_in,
                          const double* interleaved_rotors,
                          double* interleaved_acc, std::size_t samples);
/// count % 4 == 0 (transitions for msk_decide).
void window_mean_mask_avx2(const double* sums, std::size_t count,
                           const Window_divisor& divisor, double threshold,
                           std::uint64_t* mask, std::size_t first);
double excess_variance_mask_avx2(const double* sums, const double* sum_sqs,
                                 std::size_t count, const Window_divisor& divisor,
                                 double sigma2, double threshold, double peak,
                                 std::uint64_t* mask, std::size_t first);
void msk_decide_avx2(const double* interleaved_samples, std::size_t transitions,
                     std::uint8_t* bits);

// n % 8 == 0 for all of these (8 doubles per 512-bit vector).
void anc_candidates_batch_avx512(const double* interleaved_samples,
                                 std::size_t count, double a, double b,
                                 double* theta_plus, double* theta_minus,
                                 double* phi_minus, double* phi_plus);
void anc_select_batch_avx512(const double* theta_plus, const double* theta_minus,
                             const double* phi_minus, const double* phi_plus,
                             const double* known_diffs, std::size_t transitions,
                             double* phi_out, double* error_out);
void diff_arg_batch_avx512(const double* interleaved_samples,
                           std::size_t transitions, double* out);

/// 8 counter pairs (16 normals) per step, same z stream as the scalar
/// generator.  count % 16 == 0; the dispatcher handles tails.
void counter_normal_fill_avx512(std::uint64_t key_a, std::uint64_t key_b,
                                std::uint64_t first_counter, double* out,
                                std::size_t count);
/// Fused inout[i] += scale·z_i over the same z stream; count % 16 == 0.
void counter_normal_add_scaled_avx512(std::uint64_t key_a, std::uint64_t key_b,
                                      std::uint64_t first_counter, double scale,
                                      double* inout, std::size_t count);
/// samples % 4 == 0 (4 interleaved complex per 512-bit vector).
void rotor_accumulate_avx512(const double* interleaved_in,
                             double* interleaved_acc, std::size_t samples,
                             double rotor_re, double rotor_im);
/// samples % 4 == 0.
void cmul_accumulate_avx512(const double* interleaved_in,
                            const double* interleaved_rotors,
                            double* interleaved_acc, std::size_t samples);
/// count % 8 == 0 (transitions for msk_decide).
void window_mean_mask_avx512(const double* sums, std::size_t count,
                             const Window_divisor& divisor, double threshold,
                             std::uint64_t* mask, std::size_t first);
double excess_variance_mask_avx512(const double* sums, const double* sum_sqs,
                                   std::size_t count, const Window_divisor& divisor,
                                   double sigma2, double threshold, double peak,
                                   std::uint64_t* mask, std::size_t first);
void msk_decide_avx512(const double* interleaved_samples, std::size_t transitions,
                       std::uint8_t* bits);

// Bit-domain pilot-scan kernels (phy/pilot.cpp).  Integer-exact u64
// XOR + popcount loops that live in the AVX2 TU solely for the hardware
// popcnt instruction (baseline x86-64 predates POPCNT and compiles
// std::popcount to a libgcc call).  Guard calls with kernels_active():
// every AVX2-capable CPU has POPCNT.  Results are bit-identical to the
// scalar fallbacks — dispatch here is a pure speed decision.
// best_key accumulates min((errors << 48) | start); see pilot.cpp.
void pilot_scan_starts_popcnt(const std::uint64_t* words,
                              const std::uint64_t* shifted,
                              const std::uint64_t* masks, std::size_t stride,
                              std::size_t from, std::size_t to,
                              std::size_t max_errors, std::uint64_t* best_key);
/// Stride-2 stripe-major variant over word-aligned starts
/// [64*w_lo, 64*w_hi + 63]; shifted/masks are the 64x2 tables.
void pilot_scan_striped_popcnt(const std::uint64_t* words,
                               const std::uint64_t* shifted,
                               const std::uint64_t* masks, std::size_t w_lo,
                               std::size_t w_hi, std::size_t max_errors,
                               std::uint64_t* best_key);

} // namespace detail

} // namespace anc::simd
