// Text primitives shared by the engine's documents: the sweep JSON/CSV
// (emit.cpp), the run manifest (metrics.cpp), the journal (journal.cpp)
// and the grid fingerprint (sweep.cpp).  Internal to src/engine; every
// format is fixed and locale-independent, so emitted bytes are stable
// across runs and machines.

#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace anc::engine::text {

/// %.17g: round-trips every finite double.
inline std::string fmt_double(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

inline std::string fmt_u64(std::uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
    return buffer;
}

/// The body of a JSON string literal: quote, backslash and control
/// characters escaped.
inline std::string json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/// `[a,b,...]`, each element written by format_one(value).
template <typename T, typename Fmt>
void json_array(std::ostream& out, const std::vector<T>& values, Fmt&& format_one)
{
    out << "[";
    bool first = true;
    for (const T& value : values) {
        out << (first ? "" : ",");
        format_one(value);
        first = false;
    }
    out << "]";
}

} // namespace anc::engine::text
