// LaneQueue, the daemon's bounded admission queue.
//
// The daemon's backpressure point: connection threads `try_push` incoming
// compile jobs and, when the queue is full, the daemon answers with an
// `overloaded` error and a retry hint instead of buffering unboundedly —
// admission control happens at the socket, not by OOM. Worker threads
// block in `pop` until a job or shutdown arrives. `close()` wakes every
// waiter; a closed queue still drains items already admitted, so graceful
// shutdown finishes accepted work before the workers exit.
//
// It has K priority lanes (lane 0 drains strictly before lane 1, so
// interactive requests overtake batch backfill), and per-worker sub-queues
// inside each lane keyed by the request's affinity digest, so repeat
// requests for the same module run one after another on one worker and
// the later ones find what the first put in the shared session's caches,
// instead of racing it cold. Concentrating a module's requests on one
// worker also keeps peak RSS down: a plain FIFO per lane raised perfbench
// warm_serve's peak RSS from 7.20 to 7.65 MB (+6%, over its 5% bound; 4
// vCPU Xeon), because affinity leaves the second worker's stack and heap
// untouched; measure RSS before replacing the sub-queues. An idle worker
// whose own sub-queues are empty *steals* the oldest job from the longest
// sibling sub-queue of the highest non-empty lane — affinity is a hint,
// head-of-line blocking is not allowed to grow the queue-wait tail.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace psaflow::serve {

/// Priority lanes + per-worker affinity sub-queues + work stealing. See
/// the header comment for the draining discipline. One shared capacity
/// bounds all lanes together: admission control cares about total queued
/// work, not its priority mix.
template <typename T>
class LaneQueue {
public:
    /// What pop() hands a worker: the item, the lane it came from, and
    /// whether it was stolen from a sibling's sub-queue.
    struct Popped {
        T item;
        std::size_t lane = 0;
        bool stolen = false;
    };

    LaneQueue(std::size_t capacity, std::size_t lanes, std::size_t workers)
        : capacity_(capacity == 0 ? 1 : capacity),
          lanes_(lanes == 0 ? 1 : lanes),
          workers_(workers == 0 ? 1 : workers),
          queues_(lanes_ * workers_) {}

    /// Admit `item` into `lane`, sub-queued for worker `affinity % workers`.
    /// Never blocks: a full or closed queue returns false (reject with
    /// backpressure). Out-of-range lanes clamp to the lowest priority.
    [[nodiscard]] bool try_push(T item, std::size_t lane,
                                std::uint64_t affinity) {
        if (lane >= lanes_) lane = lanes_ - 1;
        const std::size_t worker =
            static_cast<std::size_t>(affinity % workers_);
        {
            std::lock_guard lock(mu_);
            if (closed_ || size_ >= capacity_) return false;
            queues_[lane * workers_ + worker].push_back(std::move(item));
            ++size_;
        }
        ready_.notify_all();
        return true;
    }

    /// Block until a job for `worker` is available or the queue is closed
    /// *and* drained (nullopt — the worker's exit signal). Scans lanes in
    /// priority order; within a lane takes the worker's own sub-queue
    /// first, then steals the oldest item of the longest sibling.
    [[nodiscard]] std::optional<Popped> pop(std::size_t worker) {
        worker %= workers_;
        std::unique_lock lock(mu_);
        ready_.wait(lock, [&] { return closed_ || size_ > 0; });
        if (size_ == 0) return std::nullopt;
        for (std::size_t lane = 0; lane < lanes_; ++lane) {
            std::deque<T>& own = queues_[lane * workers_ + worker];
            if (!own.empty()) {
                Popped popped{std::move(own.front()), lane, false};
                own.pop_front();
                --size_;
                return popped;
            }
            std::size_t victim = workers_;
            std::size_t longest = 0;
            for (std::size_t w = 0; w < workers_; ++w) {
                const std::size_t depth = queues_[lane * workers_ + w].size();
                if (depth > longest) {
                    longest = depth;
                    victim = w;
                }
            }
            if (victim < workers_) {
                std::deque<T>& q = queues_[lane * workers_ + victim];
                Popped popped{std::move(q.front()), lane, true};
                q.pop_front();
                --size_;
                ++steals_;
                return popped;
            }
        }
        return std::nullopt; // unreachable: size_ > 0 implies a non-empty lane
    }

    /// Stop admitting; wake all poppers. Items already queued still drain.
    void close() {
        {
            std::lock_guard lock(mu_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    [[nodiscard]] std::size_t depth() const {
        std::lock_guard lock(mu_);
        return size_;
    }

    [[nodiscard]] std::size_t lane_depth(std::size_t lane) const {
        std::lock_guard lock(mu_);
        if (lane >= lanes_) return 0;
        std::size_t total = 0;
        for (std::size_t w = 0; w < workers_; ++w)
            total += queues_[lane * workers_ + w].size();
        return total;
    }

    [[nodiscard]] std::uint64_t steals() const {
        std::lock_guard lock(mu_);
        return steals_;
    }

    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::size_t lanes() const { return lanes_; }

    [[nodiscard]] bool closed() const {
        std::lock_guard lock(mu_);
        return closed_;
    }

private:
    const std::size_t capacity_;
    const std::size_t lanes_;
    const std::size_t workers_;
    mutable std::mutex mu_;
    std::condition_variable ready_;
    std::vector<std::deque<T>> queues_; ///< [lane][worker], flattened
    std::size_t size_ = 0;
    std::uint64_t steals_ = 0;
    bool closed_ = false;
};

} // namespace psaflow::serve
