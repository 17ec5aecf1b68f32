#include "engine/journal.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "engine/text.h"
#include "util/crc.h"

namespace anc::engine {

namespace {

// ---- primitives -------------------------------------------------------

using text::fmt_double;
using text::fmt_u64;

bool is_plain(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        || c == '_' || c == '.' || c == '-';
}

/// Percent-encode anything that could collide with the payload's
/// structural bytes (space, '=', ',', ';', ':', '|', '%', newlines).
std::string encode(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (is_plain(c)) {
            out += c;
        } else {
            char buffer[4];
            std::snprintf(buffer, sizeof buffer, "%%%02x",
                          static_cast<unsigned char>(c));
            out += buffer;
        }
    }
    return out;
}

std::string decode(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '%' && i + 2 < text.size()) {
            const auto hex = [](char c) -> int {
                if (c >= '0' && c <= '9')
                    return c - '0';
                if (c >= 'a' && c <= 'f')
                    return c - 'a' + 10;
                if (c >= 'A' && c <= 'F')
                    return c - 'A' + 10;
                return -1;
            };
            const int hi = hex(text[i + 1]);
            const int lo = hex(text[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out += static_cast<char>(hi * 16 + lo);
                i += 2;
                continue;
            }
        }
        out += text[i];
    }
    return out;
}

void append_samples(std::string& out, const Cdf& cdf)
{
    bool first = true;
    for (const double sample : cdf.stored_samples()) {
        if (!first)
            out += ';';
        out += fmt_double(sample);
        first = false;
    }
}

std::vector<std::string> split(const std::string& text, char separator)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t next = text.find(separator, pos);
        if (next == std::string::npos) {
            parts.push_back(text.substr(pos));
            break;
        }
        parts.push_back(text.substr(pos, next - pos));
        pos = next + 1;
    }
    return parts;
}

struct Parse_error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

double parse_double(const std::string& text)
{
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        throw Parse_error{"bad double: " + text};
    return value;
}

std::uint64_t parse_u64(const std::string& text)
{
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        throw Parse_error{"bad integer: " + text};
    return value;
}

std::uint64_t parse_hex64(const std::string& text)
{
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 16);
    if (end == text.c_str() || *end != '\0')
        throw Parse_error{"bad hex: " + text};
    return value;
}

void parse_samples(const std::string& text, Cdf& cdf)
{
    if (text.empty())
        return;
    for (const std::string& sample : split(text, ';'))
        cdf.add(parse_double(sample));
}

/// `name:v;v;...|name:...` for series, `name:v|name:...` for scalars.
template <typename Add>
void parse_named(const std::string& text, Add&& add_one)
{
    if (text.empty())
        return;
    for (const std::string& item : split(text, '|')) {
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos)
            throw Parse_error{"bad named field: " + item};
        add_one(decode(item.substr(0, colon)), item.substr(colon + 1));
    }
}

// ---- payload serialization -------------------------------------------

std::string header_payload(const Journal_header& header)
{
    std::ostringstream out;
    char hash[20];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, header.grid_hash);
    out << "H grid=" << hash << " base_seed=" << fmt_u64(header.base_seed)
        << " tasks=" << header.tasks << " shard=" << header.shard_index << "/"
        << header.shard_count;
    return out.str();
}

std::string entry_payload(const Task_result& result)
{
    const sim::Run_metrics& metrics = result.result.metrics;
    std::string out;
    out.reserve(256);
    out += "T index=";
    out += fmt_u64(result.task.index);
    out += " seed=";
    out += fmt_u64(result.seed);
    out += " status=";
    out += to_string(result.status);
    out += " attempts=";
    out += fmt_u64(result.attempts);
    out += " metrics=";
    out += fmt_u64(metrics.packets_attempted);
    out += ',';
    out += fmt_u64(metrics.packets_delivered);
    out += ',';
    out += fmt_u64(metrics.payload_bits_delivered);
    out += ',';
    out += fmt_double(metrics.airtime_symbols);
    out += " ber=";
    append_samples(out, metrics.packet_ber);
    out += " overlaps=";
    append_samples(out, metrics.overlaps);
    out += " series=";
    bool first = true;
    for (const auto& [name, cdf] : result.result.series) {
        if (!first)
            out += '|';
        out += encode(name);
        out += ':';
        append_samples(out, cdf);
        first = false;
    }
    out += " scalars=";
    first = true;
    for (const auto& [name, value] : result.result.scalars) {
        if (!first)
            out += '|';
        out += encode(name);
        out += ':';
        out += fmt_double(value);
        first = false;
    }
    if (result.status == Task_status::error) {
        out += " error=";
        out += encode(result.error);
    }
    return out;
}

Journal_header parse_header(const std::string& payload)
{
    Journal_header header;
    bool have_grid = false, have_seed = false, have_tasks = false, have_shard = false;
    for (const std::string& field : split(payload, ' ')) {
        if (field == "H" || field.empty())
            continue;
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            throw Parse_error{"bad header field: " + field};
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "grid") {
            header.grid_hash = parse_hex64(value);
            have_grid = true;
        } else if (key == "base_seed") {
            header.base_seed = parse_u64(value);
            have_seed = true;
        } else if (key == "tasks") {
            header.tasks = parse_u64(value);
            have_tasks = true;
        } else if (key == "shard") {
            const std::size_t slash = value.find('/');
            if (slash == std::string::npos)
                throw Parse_error{"bad shard spec: " + value};
            header.shard_index = parse_u64(value.substr(0, slash));
            header.shard_count = parse_u64(value.substr(slash + 1));
            have_shard = true;
        }
        // Unknown keys: forward-compatible, ignored.
    }
    if (!have_grid || !have_seed || !have_tasks || !have_shard)
        throw Parse_error{"incomplete journal header"};
    return header;
}

Journal_entry parse_entry(const std::string& payload)
{
    Journal_entry entry;
    bool have_index = false, have_seed = false, have_status = false;
    for (const std::string& field : split(payload, ' ')) {
        if (field == "T" || field.empty())
            continue;
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            throw Parse_error{"bad entry field: " + field};
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "index") {
            entry.index = parse_u64(value);
            have_index = true;
        } else if (key == "seed") {
            entry.seed = parse_u64(value);
            have_seed = true;
        } else if (key == "status") {
            if (value == "ok")
                entry.status = Task_status::ok;
            else if (value == "error")
                entry.status = Task_status::error;
            else
                throw Parse_error{"bad status: " + value};
            have_status = true;
        } else if (key == "attempts") {
            entry.attempts = static_cast<std::uint32_t>(parse_u64(value));
        } else if (key == "metrics") {
            const std::vector<std::string> parts = split(value, ',');
            if (parts.size() != 4)
                throw Parse_error{"bad metrics field: " + value};
            entry.result.metrics.packets_attempted = parse_u64(parts[0]);
            entry.result.metrics.packets_delivered = parse_u64(parts[1]);
            entry.result.metrics.payload_bits_delivered = parse_u64(parts[2]);
            entry.result.metrics.airtime_symbols = parse_double(parts[3]);
        } else if (key == "ber") {
            parse_samples(value, entry.result.metrics.packet_ber);
        } else if (key == "overlaps") {
            parse_samples(value, entry.result.metrics.overlaps);
        } else if (key == "series") {
            parse_named(value, [&](const std::string& name, const std::string& text) {
                parse_samples(text, entry.result.series[name]);
            });
        } else if (key == "scalars") {
            parse_named(value, [&](const std::string& name, const std::string& text) {
                entry.result.scalars[name] = parse_double(text);
            });
        } else if (key == "error") {
            entry.error = decode(value);
        }
    }
    if (!have_index || !have_seed || !have_status)
        throw Parse_error{"incomplete journal entry"};
    return entry;
}

std::string stamp(const std::string& payload)
{
    char crc[12];
    std::snprintf(crc, sizeof crc, "%08x ", crc32_bytes(payload));
    return crc + payload + "\n";
}

/// Split off the 8-hex CRC prefix and verify it; false on any defect.
bool check_line(const std::string& line, std::string& payload)
{
    if (line.size() < 10 || line[8] != ' ')
        return false;
    std::uint32_t stored = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const char c = line[i];
        stored <<= 4;
        if (c >= '0' && c <= '9')
            stored |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            stored |= static_cast<std::uint32_t>(c - 'a' + 10);
        else
            return false;
    }
    payload = line.substr(9);
    return crc32_bytes(payload) == stored;
}

} // namespace

std::uint64_t grid_fingerprint(const Sweep_grid& grid)
{
    const std::string canonical = grid_to_json(grid);
    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV-1a 64
    for (const char c : canonical) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

Journal_writer::Journal_writer(const std::string& path, const Journal_header& header,
                               bool truncate)
    : path_{path}
{
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0)
        throw std::runtime_error{"Journal_writer: cannot open " + path};
    if (truncate) {
        // Magic and header go out in one write with an immediate fsync:
        // a journal either exists with a verifiable header or not at
        // all.
        const std::string preamble =
            std::string{journal_magic} + "\n" + stamp(header_payload(header));
        if (::write(fd_, preamble.data(), preamble.size())
            != static_cast<ssize_t>(preamble.size())) {
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error{"Journal_writer: cannot write header to " + path};
        }
        if (::fsync(fd_) != 0) {
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error{"Journal_writer: fsync failed on " + path};
        }
    }
}

Journal_writer::~Journal_writer()
{
    if (fd_ >= 0) {
        ::fsync(fd_); // best-effort: destructors must not throw
        ::close(fd_);
    }
}

void Journal_writer::write_line(const std::string& line)
{
    // One write(2) per line on an O_APPEND descriptor: the append is
    // atomic with respect to other appenders, and a crash can only tear
    // the line at the end of the file — which the loader's CRC check
    // catches and drops.
    if (::write(fd_, line.data(), line.size()) != static_cast<ssize_t>(line.size()))
        throw std::runtime_error{"Journal_writer: append failed on " + path_};
    if (fsync_gate_.ready()) {
        if (::fsync(fd_) != 0)
            throw std::runtime_error{"Journal_writer: fsync failed on " + path_};
    }
}

void Journal_writer::append(const Task_result& result)
{
    write_line(stamp(entry_payload(result)));
    ++appended_;
}

void Journal_writer::flush()
{
    if (fd_ >= 0 && ::fsync(fd_) != 0)
        throw std::runtime_error{"Journal_writer: fsync failed on " + path_};
    fsync_gate_.reset();
}

Journal_contents load_journal(const std::string& path)
{
    std::ifstream in{path, std::ios::binary};
    if (!in)
        throw std::runtime_error{"load_journal: cannot open " + path};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    // Split into '\n'-terminated lines; a non-empty tail without its
    // newline is a torn final line (the crash happened mid-append).
    std::vector<std::string> lines;
    std::size_t torn = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t newline = text.find('\n', pos);
        if (newline == std::string::npos) {
            torn = 1;
            break;
        }
        lines.push_back(text.substr(pos, newline - pos));
        pos = newline + 1;
    }
    if (lines.empty() || lines.front() != journal_magic)
        throw std::runtime_error{"load_journal: " + path + " is not a "
                                 + journal_magic + " journal"};

    Journal_contents contents;
    contents.dropped_lines = torn;
    bool have_header = false;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::string payload;
        if (!check_line(lines[i], payload)) {
            ++contents.dropped_lines;
            continue;
        }
        try {
            if (!payload.empty() && payload.front() == 'H') {
                if (!have_header) {
                    contents.header = parse_header(payload);
                    have_header = true;
                }
                // Later H lines (shouldn't happen) are ignored.
            } else if (!payload.empty() && payload.front() == 'T') {
                contents.entries.push_back(parse_entry(payload));
            } else {
                ++contents.dropped_lines;
            }
        } catch (const Parse_error&) {
            ++contents.dropped_lines;
        }
    }
    if (!have_header)
        throw std::runtime_error{"load_journal: " + path
                                 + " has no valid header line"};
    return contents;
}

bool journal_compatible(const Journal_header& header, const Sweep_grid& grid,
                        std::uint64_t base_seed, std::size_t tasks,
                        std::size_t shard_index, std::size_t shard_count,
                        std::string* why)
{
    const auto fail = [&](const std::string& reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (header.grid_hash != grid_fingerprint(grid))
        return fail("grid fingerprint mismatch (different axes or axis values)");
    if (header.base_seed != base_seed)
        return fail("base seed mismatch");
    if (header.tasks != tasks)
        return fail("task count mismatch");
    if (header.shard_index != shard_index || header.shard_count != shard_count)
        return fail("shard spec mismatch");
    return true;
}

std::map<std::size_t, Task_result>
preload_from_entries(std::vector<Journal_entry>&& entries,
                     const std::vector<Sweep_task>& tasks)
{
    std::map<std::uint64_t, std::size_t> position_of;
    for (std::size_t position = 0; position < tasks.size(); ++position)
        position_of.emplace(tasks[position].index, position);

    std::map<std::size_t, Task_result> preloaded;
    for (Journal_entry& entry : entries) {
        const auto found = position_of.find(entry.index);
        if (found == position_of.end())
            continue; // another shard's row
        Task_result result;
        result.task = tasks[found->second];
        result.seed = entry.seed;
        result.status = entry.status;
        result.attempts = entry.attempts;
        result.error = std::move(entry.error);
        result.result = std::move(entry.result);
        // First occurrence wins; duplicates (a journal appended across
        // several resumes) are deterministic replays of the same task
        // anyway.
        preloaded.emplace(found->second, std::move(result));
    }
    return preloaded;
}

} // namespace anc::engine
