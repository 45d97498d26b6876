// A small fixed-size thread-pool executor with cooperative fork/join.
//
// The flow engine runs independent design-flow branches as parallel jobs.
// Branches nest (target branch A forks into device branches B/C), so a job
// waiting for its children must not park a pool thread: TaskGroup::wait()
// *helps* — it pops and executes pending jobs from the shared queue until
// its own group has drained. This keeps nested fork/join deadlock-free with
// any pool size, including a pool of one.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psaflow {

class ThreadPool {
public:
    /// A pool with `threads` workers. `threads == 0` means default_jobs().
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// std::thread::hardware_concurrency(), at least 1.
    [[nodiscard]] static int default_jobs();

    [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

    /// Stop the workers and drain the queue. Safe to call concurrently with
    /// TaskGroup::run: jobs enqueued before the stop flag is visible are
    /// executed by the exiting workers or by the drain below, and jobs
    /// submitted after it run inline on the submitting thread — no job is
    /// ever dropped and no waiter can deadlock on a dead pool. Idempotent;
    /// the destructor calls it.
    void shutdown();

    /// True once shutdown has begun; submissions now run inline.
    [[nodiscard]] bool stopped() const;

private:
    friend class TaskGroup;

    struct Job {
        std::function<void()> fn;
    };

    void worker_loop();
    /// Pop one job if available; returns false when the queue is empty.
    bool try_run_one();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Job> queue_;
    std::vector<std::thread> workers_;
    bool stop_ = false;
};

/// A batch of jobs submitted to a pool; `wait()` blocks (helping) until all
/// jobs of this group have finished. Exceptions thrown by jobs are captured;
/// the first one (in submission order) is rethrown from wait(). Each job
/// inherits the submitter's trace context (recording sink and active span),
/// so spans recorded inside a job parent under the span that forked it.
class TaskGroup {
public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup() {
        // A group must not outlive its pending jobs (they capture `this`).
        wait_no_throw();
    }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueue `fn` on the pool.
    void run(std::function<void()> fn);

    /// Help execute queued jobs until every job of this group is done, then
    /// rethrow the first captured exception, if any.
    void wait();

private:
    void wait_no_throw() noexcept;
    void finish_one(std::size_t index, std::exception_ptr error) noexcept;

    ThreadPool& pool_;
    std::mutex mu_;
    std::condition_variable done_cv_;
    std::size_t submitted_ = 0;
    std::size_t completed_ = 0;
    /// Lowest submission index that failed, and its exception.
    std::size_t first_error_index_ = SIZE_MAX;
    std::exception_ptr first_error_;
};

} // namespace psaflow
