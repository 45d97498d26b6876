// psaflowd's engine room: admission control and warm workers behind the
// shared serving front end (serve/front_end.hpp owns the listeners, the
// reader thread per connection, the frame loop and the drain).
//
// Threading model:
//   * A connection's reader hands each parsed request to `handle()`, which
//     refuses what a shard does not serve (`sleep` without test endpoints,
//     the router-only types, an "out" leaving the output root), answers
//     the metrics plane and `cas_*` inline (responsive while every worker
//     is busy), and admits `compile`/`sleep` jobs into the LaneQueue —
//     a full or closed queue yields `overloaded` with a retry hint from
//     the observed p50 latency — then blocks on the job's future.
//   * `workers` worker threads drain the queue through the daemon's one
//     FlowSession (engine jobs default 1: request-level parallelism), so
//     they share its profile cache and store. A job's deadline was armed
//     at *receipt*, so queue time counts; an expired job is answered
//     without running. execute_request never throws.
//
// Drain (notify_shutdown, async-signal-safe): the front end stops
// accepting and unlinks the socket file, the queue closes (admitted jobs
// still drain), the workers join, then the readers — every admitted
// request is answered. The CAS needs no flush (atomic renames).
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

#include "flow/session.hpp"
#include "obs/flight.hpp"
#include "serve/front_end.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "support/cancel.hpp"
#include "support/histogram.hpp"

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
    /// The workers' shared session: engine jobs per request (default 1:
    /// request-level parallelism), store, profile cache.
    flow::SessionOptions session = [] {
        flow::SessionOptions options;
        options.jobs = 1;
        return options;
    }();
    bool enable_test_endpoints = false; ///< allow the "sleep" request type
    long long slo_ms = 0;               ///< flight-recorder latency SLO
                                        ///< (0 = disabled)
    std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
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
    std::uint64_t pings = 0;            ///< ping frames (not in `requests`)
    std::uint64_t cas_gets = 0;         ///< remote-CAS reads served
    std::uint64_t cas_puts = 0;         ///< remote-CAS writes accepted
};

class Daemon {
public:
    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Bind the listeners and start the worker pool. Returns an error
    /// message on failure (daemon unusable afterwards).
    [[nodiscard]] std::optional<std::string> start();

    /// Accept/serve until notify_shutdown(); returns after a full drain.
    void run();

    /// Request shutdown. Async-signal-safe; callable from signal handlers
    /// and other threads.
    void notify_shutdown() noexcept { front_.notify_shutdown(); }
    /// The shared front end (signal wiring, the start-up line).
    [[nodiscard]] FrontEnd& front_end() { return front_; }

    /// The stats-endpoint document (also handy for tests and logs).
    [[nodiscard]] json::Value stats_json();

    /// The metrics-endpoint body: Prometheus text-format exposition of the
    /// same metrics plane (daemon tallies, latency histograms with
    /// per-task labels, flow counters).
    [[nodiscard]] std::string metrics_text();

    [[nodiscard]] DaemonCounters counters() const;
    [[nodiscard]] const DaemonOptions& options() const { return options_; }
    /// The session every worker runs through (its store takes the remote
    /// tier hooks of --cas-upstream).
    [[nodiscard]] flow::FlowSession& session() { return session_; }

    /// The actual TCP port after start() — meaningful when listen_tcp
    /// asked for port 0 (tests, smoke scripts). 0 without a TCP listener.
    [[nodiscard]] std::uint16_t tcp_port() const { return front_.tcp_port(); }

    /// Connection reader threads not yet joined (live ones, plus those
    /// finished since the last accept).
    [[nodiscard]] std::size_t reader_threads() const {
        return front_.reader_threads();
    }

private:
    struct Job {
        WireRequest request;
        CancelToken token; ///< armed at receipt; queue wait counts
        std::chrono::steady_clock::time_point received;
        std::promise<std::string> response; ///< serialised response frame
    };

    /// The front end's handler: one parsed request to its response frame.
    [[nodiscard]] std::string handle(WireRequest& request);
    /// Close the queue, then join the workers and the readers.
    void drain();
    void worker_loop(std::size_t worker_index);
    void execute_job(Job& job);
    [[nodiscard]] std::string handle_inline(const WireRequest& request);
    [[nodiscard]] long long retry_after_ms_hint();
    void record_outcome(const CompileOutcome& outcome);

    DaemonOptions options_;
    flow::FlowSession session_;
    obs::FlightRecorder flight_;
    LaneQueue<std::shared_ptr<Job>> queue_;
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> request_seq_{0};
    std::atomic<std::size_t> in_flight_{0};
    std::chrono::steady_clock::time_point started_;

    mutable std::mutex stats_mu_;
    DaemonCounters counters_;
    Histogram request_latency_us_;
    Histogram queue_wait_us_;
    std::map<std::string, Histogram> task_latency_us_;
    std::map<std::string, std::uint64_t> flow_counters_;
    FrontEnd front_; ///< last: its readers call into the members above
};

} // namespace psaflow::serve
