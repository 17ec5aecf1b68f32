#include "util/atomic_file.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace anc {

// PID-suffixed so concurrent writers (shard processes pointed at the
// same artifact by mistake) cannot corrupt each other's temp file; last
// rename wins with a complete document either way.
Atomic_file::Atomic_file(std::string path)
    : path_{std::move(path)},
      temp_{path_ + ".tmp." + std::to_string(::getpid())},
      out_{temp_, std::ios::binary | std::ios::trunc}
{
    if (!out_)
        throw std::runtime_error{"atomic file: cannot open " + temp_};
}

Atomic_file::~Atomic_file()
{
    if (!committed_) {
        out_.close();
        std::remove(temp_.c_str());
    }
}

void Atomic_file::commit()
{
    out_.close();
    if (!out_)
        throw std::runtime_error{"atomic file: write failed on " + temp_};
    // fsync so the rename publishes durable bytes, not page-cache
    // contents that a power cut could drop.
    const int fd = ::open(temp_.c_str(), O_WRONLY);
    if (fd < 0)
        throw std::runtime_error{"atomic file: cannot reopen " + temp_};
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        throw std::runtime_error{"atomic file: fsync failed on " + temp_};
    if (std::rename(temp_.c_str(), path_.c_str()) != 0)
        throw std::runtime_error{"atomic file: cannot rename " + temp_ + " -> " + path_};
    committed_ = true;
}

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer)
{
    Atomic_file file{path};
    writer(file.stream());
    file.commit();
}

} // namespace anc
