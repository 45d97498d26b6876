// psaflowd's engine room: accept loop, admission control, warm workers.
//
// Threading model:
//   * `run()` (the caller's thread) polls {listen socket, self-pipe};
//     SIGTERM handlers call `notify_shutdown()` (async-signal-safe) to
//     write the pipe.
//   * One reader thread per live connection (support/reader_threads.hpp:
//     a finished reader is joined when the next connection arrives). It
//     answers `ping`/`stats` inline (so the metrics plane stays responsive
//     while every worker is busy) and admits `compile`/`sleep` jobs into
//     the LaneQueue; a full or closed queue yields an `overloaded`
//     response with a retry hint derived from the observed p50 latency.
//     The reader then blocks on the job's future — requests on one
//     connection are served in order, concurrency comes from concurrent
//     connections.
//   * `workers` worker threads each own a warm FlowSession (engine jobs
//     default 1: request-level parallelism, not per-request fan-out) and
//     drain the queue. Each job's deadline token was armed at *receipt*,
//     so time spent queued counts against the deadline; an expired job is
//     answered without running. Failures are contained per request —
//     execute_request never throws.
//
// Drain (notify_shutdown): stop accepting (close listener, unlink the
// socket file), close the queue (admitted jobs still drain), join the
// workers, then the readers. Every admitted request gets its response
// before the daemon exits; the CAS needs no flush (entries are published
// with atomic renames at write time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "support/cancel.hpp"
#include "support/histogram.hpp"
#include "support/net.hpp"
#include "support/reader_threads.hpp"

namespace psaflow::serve {

struct DaemonOptions {
    std::string socket_path;            ///< Unix socket ("" = TCP only)
    std::string listen_tcp;             ///< "host:port" TCP listener ("" = none;
                                        ///< port 0 binds ephemeral, see tcp_port())
    std::string shard_name;             ///< cluster identity; labels metrics
    int workers = 2;
    std::size_t queue_depth = 16;       ///< admission queue capacity
    long long default_deadline_ms = 0;  ///< applied when a request has none
    long long recv_timeout_ms = 5000;   ///< cap on mid-frame peer stalls
    std::string out_root = "designs";   ///< root for relative/absent "out"
    int session_jobs = 1;               ///< engine jobs per worker session
    std::string cache_dir;              ///< CAS root ("" = env/default)
    std::uint64_t cache_max_bytes = 0;
    bool enable_test_endpoints = false; ///< allow the "sleep" request type
    long long slo_ms = 0;               ///< flight-recorder latency SLO
                                        ///< (0 = PSAFLOW_SLO_MS / disabled)
};

/// Monotonic request/connection tallies, readable while serving.
struct DaemonCounters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;           ///< internal flow failures
    std::uint64_t bad_requests = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t cas_gets = 0;         ///< remote-CAS reads served
    std::uint64_t cas_puts = 0;         ///< remote-CAS writes accepted
};

class Daemon {
public:
    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Bind the socket, create the self-pipe and start the worker pool.
    /// Returns an error message on failure (daemon unusable afterwards).
    [[nodiscard]] std::optional<std::string> start();

    /// Accept/serve until notify_shutdown(); returns after a full drain.
    void run();

    /// Request shutdown. Async-signal-safe (one write(2) to the
    /// self-pipe); callable from signal handlers and other threads.
    void notify_shutdown() noexcept;

    /// The stats-endpoint document (also handy for tests and logs).
    [[nodiscard]] json::Value stats_json();

    /// The metrics-endpoint body: Prometheus text-format exposition of the
    /// same metrics plane (daemon tallies, latency histograms with
    /// per-task labels, flow counters).
    [[nodiscard]] std::string metrics_text();

    /// The logs-endpoint document: recent structured-log records,
    /// oldest first. `min_level` as in obs::parse_log_level ("" = all).
    [[nodiscard]] static json::Value logs_json(long long max_records,
                                               const std::string& min_level);

    [[nodiscard]] DaemonCounters counters() const;
    [[nodiscard]] const DaemonOptions& options() const { return options_; }

    /// The actual TCP port after start() — meaningful when listen_tcp
    /// asked for port 0 (tests, smoke scripts). 0 without a TCP listener.
    [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

    /// Work-stealing tally of the admission queue (see serve/queue.hpp).
    [[nodiscard]] std::uint64_t queue_steals() const {
        return queue_.steals();
    }

    /// Connection reader threads not yet joined (live ones, plus those
    /// finished since the last accept).
    [[nodiscard]] std::size_t reader_threads() const {
        return readers_.retained();
    }

private:
    struct Job {
        WireRequest request;
        CancelToken token; ///< armed at receipt; queue wait counts
        std::chrono::steady_clock::time_point received;
        std::promise<std::string> response; ///< serialised response frame
    };

    void serve_connection(net::Fd conn);
    void worker_loop(std::size_t worker_index);
    void execute_job(flow::FlowSession& session, Job& job);
    [[nodiscard]] std::string handle_inline(const WireRequest& request);
    [[nodiscard]] long long retry_after_ms_hint();
    void record_outcome(const CompileOutcome& outcome,
                        std::uint64_t queue_wait_us);

    DaemonOptions options_;
    net::Fd listen_fd_;
    net::Fd tcp_listen_fd_;
    std::uint16_t tcp_port_ = 0;
    net::Fd wake_read_;
    net::Fd wake_write_;
    LaneQueue<std::shared_ptr<Job>> queue_;
    std::vector<std::thread> workers_;
    ReaderThreads readers_;
    std::atomic<bool> shutting_down_{false};
    std::atomic<std::uint64_t> request_seq_{0};
    std::atomic<std::size_t> in_flight_{0};
    std::chrono::steady_clock::time_point started_;

    mutable std::mutex stats_mu_;
    DaemonCounters counters_;
    Histogram request_latency_us_;
    Histogram queue_wait_us_;
    std::map<std::string, Histogram> task_latency_us_;
    std::map<std::string, std::uint64_t> flow_counters_;
};

} // namespace psaflow::serve
