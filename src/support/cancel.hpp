// Cooperative request cancellation.
//
// A CancelToken is the one-way "stop working" signal a serving layer hands
// to a compile request: the owner arms it (explicitly or via a deadline)
// and the flow engine / interpreter poll it at safe points, unwinding with
// CancelledError. Polling sites never block and never check the clock more
// than once per poll, so tokens are cheap enough to consult from the
// interpreter's hot loop (every few thousand steps).
//
// Deep layers (the interpreter, analyses) do not take a token parameter;
// they poll the *ambient* token installed thread-locally by CancelScope.
// The flow engine installs the context's token around the prologue and
// around every branch-path job, so cancellation follows the work onto pool
// threads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "support/error.hpp"

namespace psaflow {

/// Thrown from a polling site once its token is cancelled. Derives from
/// Error so existing catch-all failure paths keep working, but serving
/// code catches it first to classify the failure as "cancelled" rather
/// than "crashed".
class CancelledError : public Error {
public:
    using Error::Error;
};

class CancelToken {
public:
    /// Explicit cancellation (idempotent, thread-safe).
    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

    /// Arm a wall-clock deadline `budget` from now. A non-positive budget
    /// makes the token expire immediately.
    void set_deadline_after(std::chrono::nanoseconds budget) noexcept {
        set_deadline(std::chrono::steady_clock::now() + budget);
    }

    void set_deadline(std::chrono::steady_clock::time_point when) noexcept {
        deadline_ns_.store(when.time_since_epoch().count(),
                           std::memory_order_relaxed);
    }

    /// True once cancel() was called or the deadline passed.
    [[nodiscard]] bool cancelled() const noexcept {
        if (cancelled_.load(std::memory_order_relaxed)) return true;
        const std::int64_t deadline =
            deadline_ns_.load(std::memory_order_relaxed);
        return deadline != 0 &&
               std::chrono::steady_clock::now().time_since_epoch().count() >=
                   deadline;
    }

    /// Why the token fired: "cancelled" or "deadline exceeded". Only
    /// meaningful after cancelled() returned true.
    [[nodiscard]] const char* reason() const noexcept {
        return cancelled_.load(std::memory_order_relaxed)
                   ? "cancelled"
                   : "deadline exceeded";
    }

private:
    std::atomic<bool> cancelled_{false};
    std::atomic<std::int64_t> deadline_ns_{0}; ///< steady clock; 0 = none
};

/// Throw CancelledError if `token` (nullable) has fired.
void poll_cancellation(const CancelToken* token);

/// The calling thread's ambient token (nullptr when none is installed).
[[nodiscard]] const CancelToken* current_cancel_token() noexcept;

/// Poll the ambient token. The interpreter's periodic check.
inline void poll_cancellation() { poll_cancellation(current_cancel_token()); }

/// RAII install of `token` as the calling thread's ambient token for the
/// scope's lifetime; restores the previous ambient token on exit. A null
/// token is allowed (the scope then shadows any outer token with "none").
class CancelScope {
public:
    explicit CancelScope(const CancelToken* token) noexcept;
    ~CancelScope();

    CancelScope(const CancelScope&) = delete;
    CancelScope& operator=(const CancelScope&) = delete;

private:
    const CancelToken* previous_;
};

} // namespace psaflow
