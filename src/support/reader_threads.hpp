// Reader threads for an accept loop: one per accepted connection.
//
// psaflowd and psaflow-router serve each connection on its own thread. A
// reader that has finished still holds its stack and guard page until it
// is joined, so joining only at shutdown keeps one thread's memory per
// connection ever served. `spawn` first joins every reader that has
// finished, so the threads retained follow the live connections, not the
// connection history. `join_all` is the drain: it waits for every reader
// still running.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <thread>
#include <utility>

namespace psaflow {

class ReaderThreads {
public:
    ReaderThreads() = default;
    ~ReaderThreads() { join_all(); }

    ReaderThreads(const ReaderThreads&) = delete;
    ReaderThreads& operator=(const ReaderThreads&) = delete;

    /// Join the readers that have finished, then run `serve` on a new one.
    template <typename Fn>
    void spawn(Fn serve) {
        std::lock_guard lock(mu_);
        reap_locked();
        Reader& reader = readers_.emplace_back();
        try {
            reader.thread = std::thread(
                [serve = std::move(serve), &done = reader.done]() mutable {
                    serve();
                    done.store(true);
                });
        } catch (...) {
            readers_.pop_back(); // no thread: nothing to join
            throw;
        }
    }

    /// Wait for every reader (after the accept loop stops spawning).
    void join_all();

    /// Readers not yet joined: the live ones plus those that finished
    /// since the last spawn.
    [[nodiscard]] std::size_t retained() const;

private:
    struct Reader {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void reap_locked();

    mutable std::mutex mu_;
    std::list<Reader> readers_; ///< a list, so `done` never moves
};

} // namespace psaflow
