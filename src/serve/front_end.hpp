// The serving front end psaflowd and psaflow-router share: listeners,
// self-pipe, accept loop, drain, and each connection's frame loop up to a
// parsed request. The owner (serve::Daemon, cluster::Router) supplies only
// the handler that turns a parsed request into a response frame.
//
// Threading model:
//   * `run()` (the owner's thread) polls {unix listener, tcp listener,
//     self-pipe}; `notify_shutdown()` (async-signal-safe: one write(2))
//     wakes it.
//   * One reader thread per live connection. A reader reads each frame
//     under the receive timeout, so a peer stalled mid-frame is answered
//     "malformed frame: torn frame" instead of wedging the reader and,
//     with it, the drain. Torn or oversized
//     frames are answered and close the connection (the stream is
//     unsynchronised); invalid JSON and requests parse_wire_request
//     rejects are answered bad_request on the same connection; everything
//     else goes to the handler. Requests on one connection are served in
//     order, concurrency comes from concurrent connections.
//
// Drain: `run()` returns once the listeners are closed and the socket file
// is unlinked. Readers stop at their next frame boundary; the owner
// finishes its own drain, then calls `join_readers()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "support/net.hpp"

namespace psaflow::serve {

class FrontEnd {
public:
    FrontEnd() = default;
    ~FrontEnd();
    FrontEnd(const FrontEnd&) = delete;
    FrontEnd& operator=(const FrontEnd&) = delete;

    /// Create the self-pipe and bind the Unix listener at `socket_path`
    /// and/or TCP at `listen_tcp` ("host:port"; "" = none).
    /// `recv_timeout_ms` caps a client's stall mid-frame.
    [[nodiscard]] std::optional<std::string>
    listen(const std::string& socket_path, const std::string& listen_tcp,
           long long recv_timeout_ms);

    /// Accept until notify_shutdown(). Each connection's reader calls
    /// `make_handler()` once, then per request
    /// `handler(WireRequest&, const json::Value& doc, const std::string&
    /// payload)` -> response frame; `payload` is the raw frame.
    template <typename MakeHandler>
    void run(MakeHandler make_handler) {
        net::Fd conn;
        while (accept_next(conn)) {
            std::lock_guard lock(readers_mu_);
            Reader& reader = add_reader_locked();
            try {
                reader.thread = std::thread(
                    [this, make_handler, fd = std::move(conn),
                     &done = reader.done]() mutable {
                        serve(std::move(fd), make_handler());
                        done.store(true);
                    });
            } catch (...) {
                readers_.pop_back(); // no thread: nothing to join
                throw;
            }
        }
        stop_accepting();
    }

    /// Wait for every reader still running (after run() returned).
    void join_readers();
    void notify_shutdown() noexcept;
    /// Route SIGTERM/SIGINT to notify_shutdown(), ignore SIGPIPE.
    void shutdown_on_signals();
    /// Tally a request the handler refused.
    void count_bad_request() { bad_requests_.fetch_add(1); }

    [[nodiscard]] bool draining() const { return shutting_down_.load(); }
    /// The bound TCP port (resolves a requested port 0); 0 without TCP.
    [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }
    /// "<socket path>", "tcp port <n>", or both joined by " and ".
    [[nodiscard]] std::string describe() const;
    [[nodiscard]] std::uint64_t connections() const {
        return connections_.load();
    }
    /// Well-framed requests other than pings, and those refused as bad
    /// requests.
    [[nodiscard]] std::uint64_t requests() const { return requests_.load(); }
    /// Ping frames (liveness probes, counted apart from requests()).
    [[nodiscard]] std::uint64_t pings() const { return pings_.load(); }
    [[nodiscard]] std::uint64_t bad_requests() const {
        return bad_requests_.load();
    }
    /// Readers not yet joined: the live ones plus those finished since
    /// the last accept.
    [[nodiscard]] std::size_t reader_threads() const;

private:
    enum class Next { Request, Answered, Close };
    /// A finished reader still holds its stack until joined, so each
    /// accept first joins the finished ones: the threads retained follow
    /// the live connections, not the connection history.
    struct Reader {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /// Join the finished readers, then append a new one.
    [[nodiscard]] Reader& add_reader_locked();

    /// The next connection; false once shutdown is requested.
    [[nodiscard]] bool accept_next(net::Fd& conn);
    void stop_accepting();
    /// Read and parse the next request on `fd`, answering malformed frames
    /// and bad requests itself.
    [[nodiscard]] Next next_request(int fd, std::string& payload,
                                    std::optional<json::Value>& doc,
                                    WireRequest& request);

    template <typename Handler>
    void serve(net::Fd conn, Handler handle) {
        net::set_recv_timeout(conn.get(), recv_timeout_ms_);
        std::string payload;
        std::optional<json::Value> doc;
        while (true) {
            WireRequest request;
            const Next next = next_request(conn.get(), payload, doc, request);
            if (next == Next::Close ||
                (next == Next::Request &&
                 !net::write_frame(conn.get(),
                                   handle(request, *doc, payload))))
                break;
        }
    }

    std::string socket_path_;
    net::Fd listen_fd_;
    net::Fd tcp_listen_fd_;
    std::uint16_t tcp_port_ = 0;
    long long recv_timeout_ms_ = 0;
    net::Fd wake_read_;
    net::Fd wake_write_;
    std::atomic<bool> shutting_down_{false};
    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> pings_{0};
    std::atomic<std::uint64_t> bad_requests_{0};
    mutable std::mutex readers_mu_; ///< guards readers_
    std::list<Reader> readers_; ///< a list, so `done` never moves; last:
                                ///< readers use every member above
};

} // namespace psaflow::serve
