// Crash-safe file publishing: write to a sibling temp file, fsync,
// rename over the destination.
//
// Every artifact the engine leaves behind (sweep JSON/CSV, the
// anc.metrics.v1 manifest, and the rows anc_sweep --stream writes as
// tasks finish) is published this way.  Written in place, a crash —
// exactly the event the fault-tolerant sweep layer exists to survive —
// could leave a truncated, unparseable file at the published path.
// rename(2) on the same filesystem is atomic: readers see either the
// old complete file or the new complete file, never a prefix.
//
// The journal (engine/journal.h) is the deliberate exception: it is
// append-only by design and protects itself with per-line CRCs instead.

#pragma once

#include <fstream>
#include <functional>
#include <ostream>
#include <string>

namespace anc {

/// A file published atomically: content streams into `path.tmp.<pid>`
/// for as long as the caller likes, and commit() flushes, fsyncs and
/// renames it onto `path`.  Destroyed uncommitted (an error or an
/// exception before commit()), it removes the temp file and leaves
/// `path` untouched.  Every failure throws std::runtime_error.
class Atomic_file {
public:
    /// Creates the temp file; throws when it cannot be opened.
    explicit Atomic_file(std::string path);
    ~Atomic_file();

    Atomic_file(const Atomic_file&) = delete;
    Atomic_file& operator=(const Atomic_file&) = delete;

    std::ostream& stream() { return out_; }

    /// Publish: flush, fsync, rename onto the destination.
    void commit();

private:
    std::string path_;
    std::string temp_;
    std::ofstream out_;
    bool committed_ = false;
};

/// Write `path` atomically in one go: `writer` streams the whole content
/// into an Atomic_file, which is then committed.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

} // namespace anc
