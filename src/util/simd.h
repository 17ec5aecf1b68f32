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
// Each backend is one detail::Kernel_table: a function pointer per
// kernel plus the lane width.  scalar_kernels (simd.cpp) holds the
// scalar fallbacks, the reference every lane kernel is tested against.
// The lane kernels are written once, in src/util/simd_kernels.inl, as
// templates over a lane-width trait, and compiled twice into
// avx2_kernels (simd_kernels_avx2.cpp: Lanes<4>, -mavx2 -mfma) and
// avx512_kernels (simd_kernels_avx512.cpp: Lanes<8>, -mavx512f), both
// under -ffp-contract=off so the compiler cannot fuse the mul/add chains
// the bit-compatibility contract pins down.  Those are the only
// translation units built above the baseline ISA; each exports nothing
// but its table, and no table is reachable without passing through
// kernels_for() / active_kernels().

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

// ------------------------------------------------------------- kernels
// All kernels accept any n; the dispatchers run the active backend's
// lane kernel over the full 8-wide (avx512) or 4-wide (avx2) blocks and
// the scalar kernel over the tail (element-wise identical, so the seam
// is invisible in the output).

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

/// The fixed-gain channel accumulate over a precomputed rotor stream
/// (Link_channel caches rotor_n = polar(gain, phase + drift·n) per link,
/// so each rotation is evaluated once per link, not per transmission):
///   acc[2i]   += in[2i]·rot[2i] − in[2i+1]·rot[2i+1]
///   acc[2i+1] += in[2i]·rot[2i+1] + in[2i+1]·rot[2i]
/// i.e. element-wise complex multiply-accumulate, bit-identical across
/// tiers (mul/sub/add per element, no FMA, no reassociation).
void cmul_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                     double* interleaved_acc, std::size_t samples);

/// The Rayleigh-faded channel accumulate over one coherence block: the
/// rotor stream's product, then the block's fade,
///   t = in·rot (as in cmul_accumulate);  acc += t·fade
/// i.e. the two std::complex products of out[n] += signal[n] · rotor[n]
/// · fade, in that order, bit-identical across tiers.
void cmul_fade_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                          double* interleaved_acc, std::size_t samples, double fade_re,
                          double fade_im);

// Receiver scans (§7.1 detectors, §5 demodulation).  Like the channel
// accumulators these serve both math profiles, and every backend
// reproduces the historical scalar loops bit for bit.  The
// detector kernels read the sliding-window sums of |y|^2 (and |y|^4)
// that dsp::window_energy_sums_into produces and set bit n of `mask`
// (words [0, ceil(windows / 64)), overwritten) when window n passes.

// The window means are sums · inv_w, with inv_w = 1 / w for the
// detector's window w.  Both detector windows are powers of two, so the
// multiply rounds exactly as sum / w would (x·2^-k and x/2^k only scale
// the exponent).

/// The packet detector's threshold test: bit n is set iff the mean
/// sums[n] · inv_w > threshold.
void window_mean_mask(const double* sums, std::size_t windows, double inv_w,
                      double threshold, std::uint64_t* mask);

/// The interference analyzer's excess-variance test.  Per window:
///   mean     = sum · inv_w;  variance = sum_sq · inv_w − mean², clamped at 0
///   ratio    = variance / (2·max(mean − σ², 1e-12)·σ² + σ²·σ²)
/// with the scalar operand order of phy/detector.cpp.  Bit n is set iff
/// ratio > threshold; returns max(1e-12, every non-NaN ratio).
double excess_variance_mask(const double* sums, const double* sum_sqs,
                            std::size_t windows, double inv_w, double sigma2,
                            double threshold, std::uint64_t* mask);

/// MSK hard decisions (dsp::Msk_demodulator): bits[n] = 1 iff
/// arg(y[n+1]·conj(y[n])) >= 0, decided from the sign structure of the
/// ratio's parts, for n in [0, transitions) over interleaved samples
/// [0, transitions].
void msk_decide(const double* interleaved_samples, std::size_t transitions,
                std::uint8_t* bits);

namespace detail {

/// One backend's kernels.  A lane kernel takes counts that are a
/// multiple of `width` elements (a power of two; 1 for scalar); the
/// dispatchers feed the rest to scalar_kernels.  The members declared
/// through decltype have their public dispatcher's signature.
struct Kernel_table {
    std::size_t width;
    decltype(&simd::anc_candidates_batch) anc_candidates_batch;
    decltype(&simd::anc_select_batch) anc_select_batch;
    decltype(&simd::diff_arg_batch) diff_arg_batch;
    decltype(&simd::cmul_accumulate) cmul_accumulate;
    decltype(&simd::cmul_fade_accumulate) cmul_fade_accumulate;
    decltype(&simd::msk_decide) msk_decide;

    /// Counter_normal's Box–Muller, fused into inout[i] += scale·z_i over
    /// counters [first_counter, first_counter + ceil(count / 2)): the
    /// same z stream as Counter_normal::pair at every counter.  A lane
    /// step draws in float lanes, 2·width counters at once, so lane
    /// kernels need count % (4·width) == 0.
    void (*counter_normal_add_scaled)(std::uint64_t key_a, std::uint64_t key_b,
                                      std::uint64_t first_counter, double scale,
                                      double* inout, std::size_t count);

    // The receiver-scan kernels take windows [0, count) of the offset
    // `sums`/`sum_sqs` and OR window i's bit into bit first + i of `mask`
    // (the dispatcher zeroes the words; the lane kernels need
    // first % 64 == 0).  excess_variance_mask returns the running peak
    // continued from `peak` (lanes keep one peak each, so they equal the
    // scalar loop for a positive `peak`).
    void (*window_mean_mask)(const double* sums, std::size_t count, double inv_w,
                             double threshold, std::uint64_t* mask, std::size_t first);
    double (*excess_variance_mask)(const double* sums, const double* sum_sqs,
                                   std::size_t count, double inv_w, double sigma2,
                                   double threshold, double peak, std::uint64_t* mask,
                                   std::size_t first);

    // Bit-domain pilot scans (phy/pilot.cpp): integer-exact u64 XOR +
    // popcount loops, bit-identical in every table; they take any range.
    // The lane tables run them on the hardware popcnt instruction, which
    // the baseline ISA lacks.  best_key accumulates
    // min((errors << 48) | start); see pilot.cpp.
    void (*pilot_scan_starts)(const std::uint64_t* words, const std::uint64_t* shifted,
                              const std::uint64_t* masks, std::size_t stride,
                              std::size_t from, std::size_t to, std::size_t max_errors,
                              std::uint64_t* best_key);
    /// Stride-2 stripe-major variant over word-aligned starts
    /// [64*w_lo, 64*w_hi + 63]; shifted/masks are the 64x2 tables.
    void (*pilot_scan_striped)(const std::uint64_t* words, const std::uint64_t* shifted,
                               const std::uint64_t* masks, std::size_t w_lo,
                               std::size_t w_hi, std::size_t max_errors,
                               std::uint64_t* best_key);
};

/// The three backends.  avx2_kernels and avx512_kernels exist on x86-64
/// only; reach them through kernels_for().
extern const Kernel_table scalar_kernels;
extern const Kernel_table avx2_kernels;
extern const Kernel_table avx512_kernels;

/// The table of `backend`: callable only when the CPU supports it
/// (resolve_backend() would pick it or a wider one).  scalar_kernels on
/// non-x86 builds, which compile no lane kernels.
const Kernel_table& kernels_for(Backend backend);

/// kernels_for(active_backend()).
const Kernel_table& active_kernels();

} // namespace detail

/// The split every batch dispatcher shares (simd.cpp, util/rng.cpp): the
/// active table's `kernel` runs over the full-block head of the n
/// elements and scalar_kernels' over the rest, each as call(kernel, at,
/// count) on elements [at, at + count).  A block is `Per_lane`·width
/// elements (4 for the noise kernel, whose float lanes fill four doubles
/// per double lane).  All tables are element-wise identical, so the
/// split point is invisible in the output.
template <std::size_t Per_lane = 1, class Kernel, class Call>
void dispatch(std::size_t n, Kernel detail::Kernel_table::*kernel, Call&& call)
{
    const detail::Kernel_table& lanes = detail::active_kernels();
    const std::size_t head = n & ~(Per_lane * lanes.width - 1);
    if (head != 0)
        call(lanes.*kernel, std::size_t{0}, head);
    if (head != n)
        call(detail::scalar_kernels.*kernel, head, n - head);
}

} // namespace anc::simd
