// The math-profile seam: one enum that selects, at the two stages where
// an approximation earns its keep, between the bit-exact libm kernels and
// the fast approximate ones.
//
//   exact — byte-identical to the historical implementation.  Every
//           golden test, sweep JSON, and figure reproduction runs here
//           by default; nothing about this profile may drift.
//   fast  — counter-based noise and fast_atan2 decoding.  Outputs
//           differ from `exact` (the noise stream is a different,
//           equally-valid realization; the decoder's phases differ in
//           low-order bits), so results are validated *statistically*:
//           the corridor tests (tests/engine/math_profile_corridor_test.cpp)
//           bound the BER/delivery-rate deviation from `exact`, per the
//           relaxed-determinism design in PERF.md "Math profiles and the
//           lane kernels".
//
// The two seams, and nothing else, read the profile:
//
//   noise   — chan::Awgn (through chan::Medium): sequential Pcg32
//             Box–Muller under exact, Counter_normal lanes under fast.
//   decode  — Interference_decoder (through Anc_receiver): four libm
//             atan2 per sample under exact, the fast_atan2 lanes under
//             fast.
//
// Every other stage (MSK modulation, the link rotations, the
// demodulators) runs one path for both profiles.  The lanes
// (util/simd.h) are bit-compatible with the scalar kernels, so `fast`
// output is byte-identical on AVX-512, on AVX2, under
// ANC_FORCE_SCALAR_SIMD, and on machines with no AVX2 at all.

#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace anc::dsp {

enum class Math_profile {
    exact, ///< libm atan2 + sequential Box–Muller; the determinism contract
    fast,  ///< fast_atan2 decoding + counter-based noise on the lane
           ///< kernels; corridor-validated
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

} // namespace anc::dsp
