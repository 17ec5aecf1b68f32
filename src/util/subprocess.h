// Child-process supervision: spawn (fork/exec), poll, kill, reap.
//
// The coordinator layer (engine/coordinator.h) dispatches `anc_sweep`
// workers as OS processes and must detect crashes, kill stalled
// workers, and never leak zombies — this is the minimal primitive set
// for that, kept deliberately synchronous: every operation is a direct
// syscall wrapper, and liveness polling happens in the caller's loop
// (the coordinator's poll cycle), not in hidden threads.
//
// Ownership model: a Subprocess owns exactly one child.  It is move-only;
// the destructor of a still-running child SIGKILLs and reaps it, so a
// throwing supervisor cannot strand workers (detach() opts out).  After
// the child has been reaped (try_wait()/wait()/wait_for() returned
// true), the exit disposition is readable via exited()/exit_code()/
// signalled()/term_signal().

#pragma once

#include <chrono>
#include <string>
#include <vector>

#include <sys/types.h>

namespace anc::util {

/// Optional stdio redirection for spawn().  Empty paths inherit the
/// parent's descriptors.  Files are opened O_CREAT|O_APPEND (0644), so
/// several attempts of the same worker can share one log.
struct Spawn_options {
    std::string stdout_path;
    std::string stderr_path;
};

class Subprocess {
public:
    /// An empty handle (no child).  running() is false, kill/wait no-ops.
    Subprocess() = default;

    /// fork + execvp.  argv[0] is the program (PATH-resolved).  Throws
    /// std::runtime_error when argv is empty or fork/redirection setup
    /// fails; an exec failure inside the child surfaces as exit code 127
    /// (the shell convention), not an exception.
    static Subprocess spawn(const std::vector<std::string>& argv,
                            const Spawn_options& options = {});

    /// SIGKILL + reap when the child is still running (supervisors must
    /// not leak zombies on unwind).  detach() opts out.
    ~Subprocess();

    Subprocess(Subprocess&& other) noexcept;
    Subprocess& operator=(Subprocess&& other) noexcept;
    Subprocess(const Subprocess&) = delete;
    Subprocess& operator=(const Subprocess&) = delete;

    pid_t pid() const { return pid_; }

    /// True while a child exists and has not been reaped.
    bool running() const { return pid_ > 0 && !reaped_; }

    /// Non-blocking reap (waitpid WNOHANG).  True once the child has
    /// exited and its status is recorded; false while it is still
    /// running.  Safe to call repeatedly after the reap.
    bool try_wait();

    /// Blocking reap; returns exit_code().  Throws std::runtime_error if
    /// there is no child to wait for.
    int wait();

    /// Poll-based bounded wait (try_wait every ~5 ms).  True when the
    /// child exited within the timeout.
    bool wait_for(std::chrono::milliseconds timeout);

    /// Send a signal (default SIGKILL) to the child's process group, so
    /// descendants of a wrapper command die with it.  No-op after the
    /// reap or on an empty handle.
    void kill(int signum = 9) const;

    /// Forget the child without killing it (it keeps running; init
    /// reaps it).  The handle becomes empty.
    void detach();

    // ---- exit disposition (valid once try_wait/wait returned true) ----
    /// The child called exit()/_exit() (as opposed to dying on a signal).
    bool exited() const;
    /// Normal exit: the exit status.  Signalled: 128 + signal number
    /// (the shell convention), so a single int orders all outcomes.
    int exit_code() const;
    bool signalled() const;
    int term_signal() const;

private:
    pid_t pid_ = -1;
    bool reaped_ = false;
    int raw_status_ = 0;
};

} // namespace anc::util
