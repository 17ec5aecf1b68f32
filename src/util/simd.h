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
// reproduces the scalar loops bit for bit.

/// Samples per block of block_energy_sums.
inline constexpr std::size_t energy_block = 8;

/// The energy statistics behind the interference detector's certified
/// decisions (phy/detector.cpp): for each 8-sample block j in
/// [0, blocks), sums[j] is the sum of e = |y|^2 over samples
/// [8j, 8j + 8), sum_sqs[j] that of e·e, and devs[j] = sum_sqs[j] −
/// sums[j]·sums[j]·(1/8), the block's sum of squared deviations.  Each e
/// is re·re + im·im, as the detectors' serial chains form it; each sum
/// is the fixed tree ((e0 + e4) + (e2 + e6)) + ((e1 + e5) + (e3 + e7)),
/// so every backend gives the same bits.
void block_energy_sums(const double* interleaved_samples, std::size_t blocks, double* sums,
                       double* sum_sqs, double* devs);

// The interference detector's certified tests (phy/detector.cpp) on
// 64-sample windows.  Both write open[i] = !(below || above) and
// above[i] = above, as 0/1 bytes, and evaluate the clean variance
//   clean(S) = 2·max(S/64 − σ², 1e-12)·σ² + σ²·σ²
// and the clamped window variance
//   var(S, Q) = Q/64 − (S/64)², or 0 where that is below 0,
// with the operations of the detector's serial ratio var/clean.

/// The block tests, from block_energy_sums output.  Window block b is
/// windows [8b, 8b + 8); its tests read blocks b .. b + 8, so the
/// caller passes count <= blocks - 8.  With inner = Σ sums[b+1 .. b+7],
/// inner_dev = Σ devs[b+1 .. b+7], inner_sq = Σ sum_sqs[b+1 .. b+7]
/// (each added as ((v1 + v2) + (v3 + v4)) + ((v5 + v6) + v7)),
/// all = (inner + sums[b]) + sums[b+8], all_sq likewise and
/// all_dev = all_sq − all²/72:
///   below = (all_dev + dev_bound)/64·(1 + 2^-40)
///             <= threshold·clean(inner·(1 − 2^-40) − tol)
///   above = (inner_dev − dev_bound)/64·(1 − 2^-40)
///             >  threshold·clean(all·(1 + 2^-40) + tol)
void excess_block_tests(const double* sums, const double* sum_sqs, const double* devs,
                        std::size_t count, double sigma2, double threshold, double tol,
                        double dev_bound, std::uint8_t* open, std::uint8_t* above);

/// The window tests, from a window's sums of |y|^2 and |y|^4 known to
/// within tol and tol_sq: with lo = sum − tol and hi = sum + tol,
///   below = var(max(lo, 0), sum_sq + tol_sq)·(1 + 2^-40)
///             <= threshold·clean(lo)
///   above = var(max(hi, −lo), sum_sq − tol_sq)
///             >  threshold·clean(hi)·(1 + 2^-40)
/// for windows [0, count).
void excess_window_tests(const double* sums, const double* sum_sqs, std::size_t count,
                         double sigma2, double threshold, double tol, double tol_sq,
                         std::uint8_t* open, std::uint8_t* above);

/// Slots of abs_sum_max.
inline constexpr std::size_t abs_slots = 32;

/// The packet detector's energy bound: over doubles [0, 32·steps) of x,
/// sums[r] += |x[32t + r]| in order of t for each of the 32 slots r,
/// and maxes[r] becomes the running maximum maxes[r] > |x| ? maxes[r] :
/// |x| (a NaN entry makes its slot's sum NaN).  Every table takes any
/// number of steps.
void abs_sum_max(const double* x, std::size_t steps, double* sums, double* maxes);

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
    /// The receiver-scan kernels count whole blocks (window blocks), so a
    /// lane kernel takes `width` of them a step; abs_sum_max takes any
    /// count of its 32-double steps.
    decltype(&simd::block_energy_sums) block_energy_sums;
    decltype(&simd::excess_block_tests) excess_block_tests;
    decltype(&simd::excess_window_tests) excess_window_tests;
    decltype(&simd::abs_sum_max) abs_sum_max;

    /// Counter_normal's Box–Muller, fused into inout[i] += scale·z_i over
    /// counters [first_counter, first_counter + ceil(count / 2)): the z
    /// stream of anc::detail::counter_normal_pair at every counter.  A
    /// lane step draws in float lanes, 2·width counters at once, so lane
    /// kernels need count % (4·width) == 0.
    void (*counter_normal_add_scaled)(std::uint64_t key_a, std::uint64_t key_b,
                                      std::uint64_t first_counter, double scale,
                                      double* inout, std::size_t count);

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
