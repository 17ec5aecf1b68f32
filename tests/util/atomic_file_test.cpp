// Atomic_file / write_file_atomic: the destination holds either its old
// complete content or the new complete content, and no temp file
// outlives the writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "util/atomic_file.h"

namespace anc {
namespace {

/// A scratch path in the build directory, removed (with its temp
/// sibling) on destruction.
struct Temp_path {
    explicit Temp_path(const std::string& name)
        : path{testing::TempDir() + name}
    {
        std::remove(path.c_str());
    }
    ~Temp_path()
    {
        std::remove(path.c_str());
        std::remove(temp().c_str());
    }
    std::string temp() const { return path + ".tmp." + std::to_string(::getpid()); }
    std::string path;
};

bool exists(const std::string& path)
{
    return std::ifstream{path}.good();
}

std::string read(const std::string& path)
{
    std::ifstream in{path, std::ios::binary};
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(AtomicFile, CommitPublishesTheStreamedContent)
{
    const Temp_path target{"atomic_file_commit.txt"};
    Atomic_file file{target.path};
    file.stream() << "row 1\n";
    file.stream() << "row 2\n";
    EXPECT_FALSE(exists(target.path)) << "nothing is published before commit()";
    EXPECT_TRUE(exists(target.temp()));
    file.commit();
    EXPECT_EQ(read(target.path), "row 1\nrow 2\n");
    EXPECT_FALSE(exists(target.temp()));
}

TEST(AtomicFile, UncommittedFileLeavesTheDestinationUntouched)
{
    const Temp_path target{"atomic_file_abandon.txt"};
    write_file_atomic(target.path, [](std::ostream& out) { out << "old"; });
    {
        Atomic_file file{target.path};
        file.stream() << "new, but never committed";
    }
    EXPECT_EQ(read(target.path), "old");
    EXPECT_FALSE(exists(target.temp()));
}

TEST(AtomicFile, ThrowingWriterLeavesNoFileBehind)
{
    const Temp_path target{"atomic_file_throw.txt"};
    EXPECT_THROW(write_file_atomic(target.path,
                                   [](std::ostream& out) {
                                       out << "partial";
                                       throw std::runtime_error{"writer failed"};
                                   }),
                 std::runtime_error);
    EXPECT_FALSE(exists(target.path));
    EXPECT_FALSE(exists(target.temp()));
}

TEST(AtomicFile, UnwritableDirectoryThrows)
{
    EXPECT_THROW(Atomic_file{testing::TempDir() + "no_such_dir/out.json"},
                 std::runtime_error);
}

} // namespace
} // namespace anc
