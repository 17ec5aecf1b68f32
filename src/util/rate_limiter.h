// A minimum-interval gate for side effects driven by high-frequency
// callbacks.
//
// The executor's on_complete hook fires once per executed task (ENGINE.md
// documents the no-throttle contract), so every consumer that does I/O —
// the anc_sweep TTY progress line, the journal's fsync batching — needs
// the same "at most every T" discipline.  This is that
// pattern, promoted out of bench/anc_sweep so consumers stop
// re-implementing it.
//
// Not thread-safe: callers already serialize the hooks this guards (the
// executor invokes them under an internal mutex).

#pragma once

#include <chrono>

namespace anc {

class Rate_limiter {
public:
    using clock = std::chrono::steady_clock;

    /// Allows one fire per `min_interval` window.  The first ready()
    /// always fires.
    explicit Rate_limiter(clock::duration min_interval)
        : min_interval_{min_interval}
    {
    }

    /// True when at least min_interval has elapsed since the last true
    /// return (which re-arms the window).
    bool ready() { return ready(clock::now()); }

    /// Injectable-time variant, so tests need no sleeps.
    bool ready(clock::time_point now)
    {
        if (fired_ && now - last_ < min_interval_)
            return false;
        fired_ = true;
        last_ = now;
        return true;
    }

    /// Forget the last fire: the next ready() returns true regardless of
    /// elapsed time.  Used for "always do the final one" endings (the
    /// progress line's 100% draw, the journal's close-time fsync).
    void reset() { fired_ = false; }

private:
    clock::duration min_interval_;
    clock::time_point last_{};
    bool fired_ = false;
};

} // namespace anc
