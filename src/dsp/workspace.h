// Reusable scratch buffers for the sample-stream hot path.
//
// Every sweep point runs the Fig. 8 pipeline (modulate -> medium mix ->
// relay amplify -> demodulate) thousands of times; building a fresh
// std::vector for every intermediate stream made the steady state
// allocation-bound.  A Workspace is a small pool of typed buffers
// (Signal, Bits, std::vector<double>) that hot callers *lease*: a lease
// hands out a cleared buffer whose capacity survives from previous uses,
// and returns it to the pool when it goes out of scope.  After a warm-up
// pass, leasing is allocation-free (PERF.md documents the invariant;
// tests/alloc/zero_alloc_test.cpp enforces it).
//
// Ownership model: the engine executor owns one Workspace per worker
// thread and *binds* it for the thread's lifetime, so buffers are
// recycled across tasks.  Code outside the engine (examples, tests,
// single runs) transparently falls back to a per-thread default.  A
// Workspace is intentionally not thread-safe: it is only ever touched by
// the thread it is bound on, which is exactly the executor's
// no-shared-mutable-state discipline.
//
// Determinism: a lease always starts logically empty (clear(), capacity
// retained) and every kernel fully overwrites what it reads, so pooled
// buffers can never leak state between tasks — the engine's
// thread-invariance and workspace-regression tests enforce this.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dsp/sample.h"
#include "util/bits.h"

namespace anc::dsp {

class Workspace {
    template <class T>
    struct Pool {
        std::vector<std::unique_ptr<std::vector<T>>> storage;
        std::vector<std::vector<T>*> free;
        std::size_t created = 0;
        std::size_t served = 0;

        std::vector<T>* acquire()
        {
            ++served;
            if (free.empty()) {
                storage.push_back(std::make_unique<std::vector<T>>());
                free.push_back(storage.back().get());
                ++created;
            }
            std::vector<T>* buffer = free.back();
            free.pop_back();
            buffer->clear();
            return buffer;
        }
    };

public:
    /// RAII handle over a pooled buffer.  Movable, not copyable; returns
    /// the buffer to its pool on destruction.
    template <class T>
    class Lease {
    public:
        Lease(Pool<T>* pool, std::vector<T>* buffer)
            : pool_{pool}, buffer_{buffer}
        {
        }
        Lease(Lease&& other) noexcept
            : pool_{other.pool_}, buffer_{other.buffer_}
        {
            other.pool_ = nullptr;
            other.buffer_ = nullptr;
        }
        Lease& operator=(Lease&& other) noexcept
        {
            if (this != &other) {
                release();
                pool_ = other.pool_;
                buffer_ = other.buffer_;
                other.pool_ = nullptr;
                other.buffer_ = nullptr;
            }
            return *this;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        ~Lease() { release(); }

        std::vector<T>& operator*() const { return *buffer_; }
        std::vector<T>* operator->() const { return buffer_; }

    private:
        void release()
        {
            if (pool_ && buffer_)
                pool_->free.push_back(buffer_);
            pool_ = nullptr;
            buffer_ = nullptr;
        }

        Pool<T>* pool_;
        std::vector<T>* buffer_;
    };

    Workspace() = default;
    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

    /// Lease a cleared sample buffer (capacity retained across leases).
    Lease<Sample> signal() { return {&signals_, signals_.acquire()}; }

    /// Lease a cleared bit buffer.
    Lease<std::uint8_t> bits() { return {&bits_, bits_.acquire()}; }

    /// Lease a cleared real-valued buffer.
    Lease<double> reals() { return {&reals_, reals_.acquire()}; }

    /// Lease a cleared 64-bit word buffer (the bit-domain pilot search's
    /// packed-haystack scratch, phy/pilot.h).
    Lease<std::uint64_t> words() { return {&words_, words_.acquire()}; }

    /// Buffers created since construction — stops growing once the pool
    /// is warm (the zero-allocation invariant tests watch this).
    std::size_t buffers_created() const
    {
        return signals_.created + bits_.created + reals_.created + words_.created;
    }

    /// Total leases served (diagnostics).
    std::size_t leases_served() const
    {
        return signals_.served + bits_.served + reals_.served + words_.served;
    }

    /// The workspace bound to this thread, or a per-thread default when
    /// none is bound.  Hot-path components reach their scratch buffers
    /// through this accessor, so binding is purely an ownership decision.
    static Workspace& current();

    /// Scoped binding: makes `workspace` the thread's current workspace
    /// for the lifetime of the Bind (the engine executor binds one per
    /// worker thread).  Nested binds restore the previous binding.
    class Bind {
    public:
        explicit Bind(Workspace& workspace);
        Bind(const Bind&) = delete;
        Bind& operator=(const Bind&) = delete;
        ~Bind();

    private:
        Workspace* previous_;
    };

private:
    Pool<Sample> signals_;
    Pool<std::uint8_t> bits_;
    Pool<double> reals_;
    Pool<std::uint64_t> words_;
};

/// Shorthand for the common lease types.
using Signal_lease = Workspace::Lease<Sample>;
using Bits_lease = Workspace::Lease<std::uint8_t>;
using Reals_lease = Workspace::Lease<double>;
using Words_lease = Workspace::Lease<std::uint64_t>;

} // namespace anc::dsp
