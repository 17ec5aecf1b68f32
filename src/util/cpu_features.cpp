#include "util/cpu_features.h"

#include <cstdint>

// Guarded on __x86_64__ exactly like the kernel TUs (simd_kernels_*.cpp):
// cpu_features() answers "can THIS BINARY use the AVX2 backend", not
// "does the silicon have it" — a 32-bit x86 build has only the stub
// kernels, so reporting the CPU's AVX2 flag there would dispatch into
// them.  Everything else (non-x86, i386) reports no features and the
// scalar fallback serves.
#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace anc {

namespace {

#if defined(__x86_64__)

/// XGETBV(0) without the <immintrin.h> intrinsic — _xgetbv needs the
/// -mxsave target, and this TU stays at the baseline ISA.  Only called
/// after CPUID reports OSXSAVE, which guarantees the instruction exists.
std::uint64_t read_xcr0()
{
    std::uint32_t eax = 0;
    std::uint32_t edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0u));
    return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

Cpu_features probe()
{
    Cpu_features features;

    unsigned eax = 0;
    unsigned ebx = 0;
    unsigned ecx = 0;
    unsigned edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0)
        return features;

    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx_flag = (ecx & (1u << 28)) != 0;
    const bool fma_flag = (ecx & (1u << 12)) != 0;

    // XGETBV(0) reports which register states the OS restores.  Bits 1|2
    // = XMM+YMM (AVX usable); bits 5..7 add the AVX-512 opmask/ZMM state.
    std::uint64_t xcr0 = 0;
    if (osxsave)
        xcr0 = read_xcr0();
    const bool os_ymm = osxsave && (xcr0 & 0x6u) == 0x6u;
    const bool os_zmm = osxsave && (xcr0 & 0xe6u) == 0xe6u;

    features.avx = avx_flag && os_ymm;
    features.fma = fma_flag && os_ymm;

    unsigned max_leaf = __get_cpuid_max(0, nullptr);
    if (max_leaf >= 7) {
        unsigned ebx7 = 0;
        unsigned ecx7 = 0;
        unsigned edx7 = 0;
        unsigned eax7 = 0;
        __get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7);
        features.avx2 = features.avx && (ebx7 & (1u << 5)) != 0;
        features.avx512f = os_zmm && (ebx7 & (1u << 16)) != 0;
    }
    return features;
}

#else

Cpu_features probe()
{
    return {}; // no AVX2 backend in this binary; the scalar fallback serves
}

#endif

} // namespace

const Cpu_features& cpu_features()
{
    static const Cpu_features features = probe();
    return features;
}

} // namespace anc
