#include "util/subprocess.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace anc::util {

namespace {

/// waitpid with the EINTR retry every reaping path needs: the
/// coordinator handles SIGINT/SIGTERM, and a signal landing mid-reap
/// must not make a live child look unreapable (or a blocking wait
/// spuriously fail).
pid_t waitpid_retry(pid_t pid, int* status, int flags)
{
    pid_t got;
    do {
        got = ::waitpid(pid, status, flags);
    } while (got < 0 && errno == EINTR);
    return got;
}

/// Signal the child's whole process group, falling back to the child
/// alone if the group is gone.  A worker launched through a wrapper
/// (/bin/sh -c) has descendants that must not outlive a SIGKILL — an
/// orphaned grandchild keeps appending to the shard journal and makes
/// a killed worker look half-alive to the watchdog.
void kill_tree(pid_t pid, int signum)
{
    if (::kill(-pid, signum) != 0)
        ::kill(pid, signum);
}

/// Open `path` for appending and dup2 it onto `target_fd`; called in
/// the child between fork and exec, so failures must not throw — they
/// _exit(127) after a best-effort message.
void redirect_or_die(const std::string& path, int target_fd)
{
    if (path.empty())
        return;
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0 || ::dup2(fd, target_fd) < 0) {
        std::fprintf(stderr, "subprocess: cannot redirect to %s\n", path.c_str());
        ::_exit(127);
    }
    if (fd != target_fd)
        ::close(fd);
}

} // namespace

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const Spawn_options& options)
{
    if (argv.empty())
        throw std::runtime_error{"Subprocess::spawn: empty argv"};

    // execvp wants a mutable char* array; build it before the fork so
    // the child does no allocation between fork and exec.
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& arg : argv)
        cargv.push_back(const_cast<char*>(arg.c_str()));
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error{"Subprocess::spawn: fork failed"};
    if (pid == 0) {
        // Own process group, so kill() can reach every descendant the
        // command spawns (e.g. through an sh -c wrapper).
        ::setpgid(0, 0);
        redirect_or_die(options.stdout_path, STDOUT_FILENO);
        redirect_or_die(options.stderr_path, STDERR_FILENO);
        ::execvp(cargv[0], cargv.data());
        // exec only returns on failure; 127 is the shell's "command not
        // found / not runnable" convention the caller can distinguish.
        std::fprintf(stderr, "subprocess: cannot exec %s\n", cargv[0]);
        ::_exit(127);
    }

    // Mirror the child's setpgid here too: whichever side runs first
    // establishes the group, so a kill() issued immediately after
    // spawn() still reaches the whole tree (EACCES after exec means
    // the child already did it — fine).
    ::setpgid(pid, pid);

    Subprocess child;
    child.pid_ = pid;
    return child;
}

Subprocess::~Subprocess()
{
    if (running()) {
        kill_tree(pid_, SIGKILL);
        int status = 0;
        waitpid_retry(pid_, &status, 0);
    }
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_{other.pid_}, reaped_{other.reaped_}, raw_status_{other.raw_status_}
{
    other.pid_ = -1;
    other.reaped_ = false;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept
{
    if (this != &other) {
        if (running()) {
            kill_tree(pid_, SIGKILL);
            int status = 0;
            waitpid_retry(pid_, &status, 0);
        }
        pid_ = other.pid_;
        reaped_ = other.reaped_;
        raw_status_ = other.raw_status_;
        other.pid_ = -1;
        other.reaped_ = false;
    }
    return *this;
}

bool Subprocess::try_wait()
{
    if (reaped_)
        return true;
    if (pid_ <= 0)
        return false;
    int status = 0;
    const pid_t got = waitpid_retry(pid_, &status, WNOHANG);
    if (got == pid_) {
        raw_status_ = status;
        reaped_ = true;
    }
    return reaped_;
}

int Subprocess::wait()
{
    if (!reaped_) {
        if (pid_ <= 0)
            throw std::runtime_error{"Subprocess::wait: no child"};
        int status = 0;
        if (waitpid_retry(pid_, &status, 0) != pid_)
            throw std::runtime_error{"Subprocess::wait: waitpid failed"};
        raw_status_ = status;
        reaped_ = true;
    }
    return exit_code();
}

bool Subprocess::wait_for(std::chrono::milliseconds timeout)
{
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!try_wait()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
    }
    return true;
}

void Subprocess::kill(int signum) const
{
    if (running())
        kill_tree(pid_, signum);
}

void Subprocess::detach()
{
    pid_ = -1;
    reaped_ = false;
}

bool Subprocess::exited() const
{
    return reaped_ && WIFEXITED(raw_status_);
}

int Subprocess::exit_code() const
{
    if (!reaped_)
        return -1;
    if (WIFEXITED(raw_status_))
        return WEXITSTATUS(raw_status_);
    if (WIFSIGNALED(raw_status_))
        return 128 + WTERMSIG(raw_status_);
    return -1;
}

bool Subprocess::signalled() const
{
    return reaped_ && WIFSIGNALED(raw_status_);
}

int Subprocess::term_signal() const
{
    return signalled() ? WTERMSIG(raw_status_) : 0;
}

} // namespace anc::util
