// The math-profile seam: one enum that selects, at every transcendental
// call site of the sample pipeline, between the bit-exact libm kernels
// and the fast approximate ones (util/fastmath.h).
//
//   exact — byte-identical to the historical implementation.  Every
//           golden test, sweep JSON, and figure reproduction runs here
//           by default; nothing about this profile may drift.
//   fast  — polynomial transcendentals and counter-based noise.  Outputs
//           differ from `exact` in low-order bits (and the noise stream
//           is a different, equally-valid realization), so results are
//           validated *statistically*: the corridor tests
//           (tests/engine/math_profile_corridor_test.cpp) bound the
//           BER/delivery-rate deviation from `exact`, per the
//           relaxed-determinism design in PERF.md "Math profiles and the
//           lane kernels".  Batch call sites (interference decode, AWGN
//           fill, DQPSK polar, the channel rotors) go through anc::simd's
//           runtime-dispatched lane kernels (util/simd.h); single-sample
//           call sites use the scalar fast kernels.  The lanes are
//           bit-compatible with the scalar kernels, so `fast` output is
//           byte-identical on AVX-512, on AVX2, under
//           ANC_FORCE_SCALAR_SIMD, and on machines with no AVX2 at all.
//
// Call sites branch on `profile == Math_profile::exact` with the exact
// expression kept verbatim in the exact arm.

#pragma once

#include <complex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/fastmath.h"

namespace anc::dsp {

enum class Math_profile {
    exact, ///< libm + sequential Box–Muller; the determinism contract
    fast,  ///< fastmath kernels + counter-based noise on the lane kernels;
           ///< corridor-validated
};

inline const char* to_string(Math_profile profile)
{
    switch (profile) {
    case Math_profile::exact: return "exact";
    case Math_profile::fast: return "fast";
    }
    return "exact";
}

/// Parse "exact" / "fast"; throws std::invalid_argument otherwise.
/// "simd" — the name of a former profile that was byte-identical to
/// `fast` — is still accepted as an alias of `fast`.
inline Math_profile math_profile_from_string(std::string_view name)
{
    if (name == "exact")
        return Math_profile::exact;
    if (name == "fast" || name == "simd")
        return Math_profile::fast;
    throw std::invalid_argument{"math_profile_from_string: unknown profile '"
                                + std::string{name} + "'"};
}

/// Parse a profile list: "both" (exact, fast) or a comma list of names
/// math_profile_from_string accepts, e.g. "exact,fast" (empty items are
/// skipped).  Throws std::invalid_argument on an unknown name or when no
/// name is given.
inline std::vector<Math_profile> math_profiles_from_string(std::string_view list)
{
    if (list == "both")
        return {Math_profile::exact, Math_profile::fast};
    std::vector<Math_profile> profiles;
    while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const std::string_view item = list.substr(0, comma);
        if (!item.empty())
            profiles.push_back(math_profile_from_string(item));
        list.remove_prefix(comma == std::string_view::npos ? list.size() : comma + 1);
    }
    if (profiles.empty())
        throw std::invalid_argument{"math_profiles_from_string: no profile named"};
    return profiles;
}

/// Profile-dispatched atan2.
inline double profile_atan2(Math_profile profile, double y, double x)
{
    return profile == Math_profile::exact ? std::atan2(y, x) : fast_atan2(y, x);
}

/// Profile-dispatched std::arg.
inline double profile_arg(Math_profile profile, std::complex<double> value)
{
    return profile == Math_profile::exact ? std::arg(value)
                                          : fast_atan2(value.imag(), value.real());
}

/// Profile-dispatched std::polar (magnitude · e^{i·angle}).
inline std::complex<double> profile_polar(Math_profile profile, double magnitude,
                                          double angle)
{
    if (profile == Math_profile::exact)
        return std::polar(magnitude, angle);
    double s = 0.0;
    double c = 0.0;
    fast_sincos(angle, s, c);
    return {magnitude * c, magnitude * s};
}

} // namespace anc::dsp
