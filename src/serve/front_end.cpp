#include "serve/front_end.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>

#include "obs/log.hpp"

namespace psaflow::serve {

namespace {

/// The front end SIGTERM/SIGINT shut down (see shutdown_on_signals).
std::atomic<FrontEnd*> g_signalled{nullptr};

void handle_signal(int) {
    if (FrontEnd* front = g_signalled.load()) front->notify_shutdown();
}

} // namespace

FrontEnd::~FrontEnd() {
    FrontEnd* self = this;
    g_signalled.compare_exchange_strong(self, nullptr);
    notify_shutdown();
    join_readers();
}

std::optional<std::string> FrontEnd::listen(const std::string& socket_path,
                                            const std::string& listen_tcp,
                                            long long recv_timeout_ms) {
    if (socket_path.empty() && listen_tcp.empty())
        return "no listener configured (need a socket path or --listen)";
    recv_timeout_ms_ = recv_timeout_ms;

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) return "cannot create self-pipe";
    wake_read_.reset(pipe_fds[0]);
    wake_write_.reset(pipe_fds[1]);
    ::fcntl(wake_write_.get(), F_SETFL, O_NONBLOCK);

    std::string error;
    if (!socket_path.empty()) {
        listen_fd_ = net::listen_unix(socket_path, /*backlog=*/64, &error);
        if (!listen_fd_.valid()) return error;
        socket_path_ = socket_path;
    }
    if (!listen_tcp.empty()) {
        auto endpoint = net::parse_endpoint(listen_tcp, &error);
        if (!endpoint.has_value()) return error;
        if (endpoint->kind != net::Endpoint::Kind::Tcp)
            return "--listen expects host:port, got '" + listen_tcp + "'";
        tcp_listen_fd_ = net::listen_tcp(endpoint->host, endpoint->port,
                                         /*backlog=*/64, &error);
        if (!tcp_listen_fd_.valid()) return error;
        tcp_port_ = net::local_port(tcp_listen_fd_.get());
    }
    return std::nullopt;
}

bool FrontEnd::accept_next(net::Fd& conn) {
    while (true) {
        const int ready = net::wait_readable(
            {listen_fd_.get(), tcp_listen_fd_.get(), wake_read_.get()}, -1);
        const bool is_listener =
            (listen_fd_.valid() && ready == listen_fd_.get()) ||
            (tcp_listen_fd_.valid() && ready == tcp_listen_fd_.get());
        if (!is_listener) return false; // shutdown wake (or poll failure)
        conn = net::accept_connection(ready);
        if (conn.valid()) {
            connections_.fetch_add(1);
            return true;
        }
    }
}

FrontEnd::Reader& FrontEnd::add_reader_locked() {
    for (auto it = readers_.begin(); it != readers_.end();) {
        if (!it->done.load()) {
            ++it;
            continue;
        }
        it->thread.join(); // returns at once: the reader is exiting
        it = readers_.erase(it);
    }
    return readers_.emplace_back();
}

void FrontEnd::join_readers() {
    std::list<Reader> readers;
    {
        std::lock_guard lock(readers_mu_);
        readers.swap(readers_);
    }
    for (Reader& reader : readers) reader.thread.join();
}

std::size_t FrontEnd::reader_threads() const {
    std::lock_guard lock(readers_mu_);
    return readers_.size();
}

void FrontEnd::stop_accepting() {
    // Leave no trace on disk: the smoke tests assert the socket file is
    // gone once the process drained.
    shutting_down_.store(true);
    listen_fd_.reset();
    tcp_listen_fd_.reset();
    std::error_code ec;
    if (!socket_path_.empty()) std::filesystem::remove(socket_path_, ec);
}

void FrontEnd::notify_shutdown() noexcept {
    shutting_down_.store(true);
    if (wake_write_.valid()) {
        const char byte = 'q';
        [[maybe_unused]] ssize_t rc = ::write(wake_write_.get(), &byte, 1);
    }
}

void FrontEnd::shutdown_on_signals() {
    g_signalled.store(this);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);
}

std::string FrontEnd::describe() const {
    std::string out = socket_path_;
    if (tcp_port_ != 0) {
        if (!out.empty()) out += " and ";
        out += "tcp port " + std::to_string(tcp_port_);
    }
    return out;
}

FrontEnd::Next FrontEnd::next_request(int fd, std::string& payload,
                                      std::optional<json::Value>& doc,
                                      WireRequest& request) {
    if (shutting_down_.load()) return Next::Close;
    if (net::wait_readable({fd, wake_read_.get()}, -1) != fd)
        return Next::Close; // shutdown wake or poll failure

    const net::FrameStatus status = net::read_frame(fd, payload);
    if (status == net::FrameStatus::Eof || status == net::FrameStatus::Error)
        return Next::Close;
    if (status != net::FrameStatus::Ok) {
        // Torn/oversized frames get a structured complaint; the stream is
        // unsynchronised afterwards, so the connection closes.
        obs::warn("serve", "malformed frame, closing connection",
                  {{"status", net::to_string(status)}});
        (void)net::write_frame(
            fd, json::dump(make_error_response(
                    ErrorKind::BadRequest,
                    std::string("malformed frame: ") +
                        net::to_string(status))));
        return Next::Close;
    }

    std::string error;
    doc = json::parse(payload, &error);
    if (!doc.has_value()) {
        error = "invalid JSON: " + error;
    } else if (auto request_error = parse_wire_request(*doc, request)) {
        error = std::move(*request_error);
    } else {
        // Pings are liveness probes (a router's health loop sends one per
        // shard per interval), not client traffic: tallied apart.
        (request.type == RequestType::Ping ? pings_ : requests_).fetch_add(1);
        return Next::Request;
    }
    requests_.fetch_add(1);
    bad_requests_.fetch_add(1);
    return net::write_frame(fd, json::dump(make_error_response(
                                    ErrorKind::BadRequest, error)))
               ? Next::Answered
               : Next::Close;
}

} // namespace psaflow::serve
