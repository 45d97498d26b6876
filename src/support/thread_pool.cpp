#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "support/trace.hpp"

namespace psaflow {

int ThreadPool::default_jobs() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
    if (threads <= 0) threads = default_jobs();
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
    std::vector<std::thread> workers;
    {
        std::lock_guard lock(mu_);
        stop_ = true;
        // Claim the workers under the lock so concurrent shutdown calls
        // cannot double-join.
        workers.swap(workers_);
    }
    cv_.notify_all();
    for (std::thread& w : workers) w.join();
    // Belt and braces: a submitter racing the stop flag may have pushed
    // after the workers drained on their way out — run the leftovers here
    // so no job is silently dropped.
    while (try_run_one()) {
    }
}

bool ThreadPool::stopped() const {
    std::lock_guard lock(mu_);
    return stop_;
}

void ThreadPool::worker_loop() {
    for (;;) {
        Job job;
        {
            std::unique_lock lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (stop_ && queue_.empty()) return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job.fn();
    }
}

bool ThreadPool::try_run_one() {
    Job job;
    {
        std::lock_guard lock(mu_);
        if (queue_.empty()) return false;
        job = std::move(queue_.front());
        queue_.pop_front();
    }
    job.fn();
    return true;
}

void TaskGroup::run(std::function<void()> fn) {
    std::size_t index;
    {
        std::lock_guard lock(mu_);
        index = submitted_++;
    }
    // Capture the submitter's trace context: a job may run on any pool
    // thread (or inline during a helping wait), and it must record into the
    // same registry — and parent its spans under the same active span — as
    // the code that forked it. This is what keeps one request's spans a
    // single rooted tree across fork/join.
    trace::Registry* sink = &trace::Registry::current();
    const std::uint64_t parent_span = trace::current_span_id();
    std::function<void()> wrapped =
        [this, index, sink, parent_span, fn = std::move(fn)]() noexcept {
            trace::ScopedRegistry registry_scope(*sink);
            trace::ScopedParent parent_scope(parent_span);
            std::exception_ptr error;
            try {
                fn();
            } catch (...) {
                error = std::current_exception();
            }
            finish_one(index, error);
        };
    {
        std::unique_lock lock(pool_.mu_);
        if (!pool_.stop_) {
            pool_.queue_.push_back(ThreadPool::Job{std::move(wrapped)});
            lock.unlock();
            pool_.cv_.notify_one();
            return;
        }
    }
    // The pool is shutting down (or gone quiet): run the job inline so it
    // is neither dropped nor left to deadlock a wait() on a dead pool.
    wrapped();
}

void TaskGroup::finish_one(std::size_t index,
                           std::exception_ptr error) noexcept {
    std::lock_guard lock(mu_);
    if (error != nullptr && index < first_error_index_) {
        first_error_index_ = index;
        first_error_ = error;
    }
    ++completed_;
    done_cv_.notify_all();
}

void TaskGroup::wait_no_throw() noexcept {
    for (;;) {
        {
            std::unique_lock lock(mu_);
            if (completed_ == submitted_) return;
        }
        if (pool_.try_run_one()) continue;
        // Queue drained but some of our jobs still run on workers: sleep
        // until one finishes (or a nested job refills the queue — finish
        // notifications wake us either way, and we re-poll the queue).
        std::unique_lock lock(mu_);
        if (completed_ == submitted_) return;
        done_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

void TaskGroup::wait() {
    wait_no_throw();
    std::lock_guard lock(mu_);
    if (first_error_ != nullptr) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        first_error_index_ = SIZE_MAX;
        std::rethrow_exception(error);
    }
}

} // namespace psaflow
