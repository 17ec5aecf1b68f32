// Runtime CPU feature detection for the lane-kernel backend.
//
// The `fast` profile (dsp/math_profile.h) is valid configuration on
// every machine: its batch call sites go through the explicit lane
// kernels (util/simd.h), which resolve, once per run, to the best
// implementation the hardware offers.  That resolution needs a trustworthy answer to "can this
// process run 256-bit AVX2 math?", which is what this header provides —
// a CPUID probe cached for the lifetime of the process.  The answer is
// about the *process*, not just the silicon: it also requires the OS to
// save YMM state and the binary to be one that carries the AVX2 kernels
// (x86-64 builds only), so every reported feature is safe to dispatch on.
//
// Detection follows the Intel/AMD rules rather than trusting any single
// bit: AVX2 requires the CPUID leaf-7 AVX2 flag *and* OSXSAVE *and* an
// XGETBV report that the OS actually saves the YMM state on context
// switch (a kernel with XSAVE disabled makes the AVX2 flag a lie).

#pragma once

namespace anc {

struct Cpu_features {
    bool avx = false;     ///< AVX + OS YMM state support
    bool avx2 = false;    ///< AVX2 (implies `avx` here; gated on OS support)
    bool fma = false;     ///< FMA3
    bool avx512f = false; ///< AVX-512 Foundation + OS ZMM state support
};

/// The calling CPU's features, probed once and cached (the probe is a
/// handful of CPUID leaves; callers may treat this as free).
const Cpu_features& cpu_features();

} // namespace anc
