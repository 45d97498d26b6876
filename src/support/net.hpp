// EINTR-safe framed-socket I/O for the serving layer.
//
// psaflowd speaks length-prefixed JSON frames over Unix-domain and TCP
// stream sockets. This header owns everything POSIX about that: file-
// descriptor RAII, full-buffer read/write loops that retry on EINTR and
// partial transfers, the frame codec (8-byte header: "PSAF" magic + u32 LE
// payload length, then the payload), and the listen/connect/socketpair
// plumbing. Nothing here knows about JSON or the request schema —
// serve/protocol layers that on top.
//
// Frame I/O is deliberately paranoid in both directions: a torn header, a
// bad magic, an over-long length and a truncated payload are all distinct,
// non-throwing outcomes (FrameStatus on reads, WriteStatus on writes),
// because a network peer's malformed bytes or a vanished peer mid-write
// are expected inputs, not programming errors.
//
// Endpoints are spelled as strings so every tool shares one flag syntax:
// "host:port" (or "tcp:host:port") is TCP, anything else is a Unix-domain
// socket path ("unix:" prefix accepted). `parse_endpoint` is the single
// decoder.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace psaflow::net {

/// Move-only owner of a POSIX file descriptor.
class Fd {
public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd& operator=(Fd&& other) noexcept {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;

    [[nodiscard]] int get() const { return fd_; }
    [[nodiscard]] bool valid() const { return fd_ >= 0; }
    /// Give up ownership without closing.
    [[nodiscard]] int release() {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }
    void reset(int fd = -1);

private:
    int fd_ = -1;
};

/// Read exactly `size` bytes, retrying on EINTR and short reads. Returns
/// false on EOF or error; `*got` (optional) receives the byte count
/// actually read, so callers can tell clean EOF (0) from a torn transfer.
/// On clean EOF errno is set to 0 (read(2) leaves it untouched), so
/// `!ok && got == 0 && errno == 0` identifies an orderly close.
bool read_exact(int fd, void* buf, std::size_t size,
                std::size_t* got = nullptr);

/// Write exactly `size` bytes, retrying on EINTR and short writes. Uses
/// send(MSG_NOSIGNAL) on sockets so a vanished peer yields EPIPE instead
/// of killing the process.
bool write_exact(int fd, const void* buf, std::size_t size);

inline constexpr std::uint32_t kFrameMagic = 0x50534146u; ///< "FASP" LE → "PSAF"
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameStatus {
    Ok,       ///< payload filled
    Eof,      ///< clean close before any header byte
    Torn,     ///< header or payload truncated, or bad magic
    TooLarge, ///< declared length exceeds kMaxFramePayload
    Error,    ///< read error (errno preserved), e.g. a receive timeout
};
[[nodiscard]] const char* to_string(FrameStatus status);

[[nodiscard]] FrameStatus read_frame(int fd, std::string& payload);

/// Typed outcome of a frame write. `Error` preserves errno (EPIPE when the
/// peer vanished mid-frame), so callers can distinguish "peer gone" from
/// "we handed the codec an impossible frame" instead of a silent bool.
enum class WriteStatus {
    Ok,
    TooLarge, ///< payload exceeds kMaxFramePayload; nothing was sent
    Error,    ///< write/send failed (errno preserved); stream is torn
};
[[nodiscard]] const char* to_string(WriteStatus status);

[[nodiscard]] WriteStatus write_frame_status(int fd, std::string_view payload);
/// Convenience wrapper; prefer write_frame_status where the failure class
/// matters (the serving layer logs EPIPE differently from oversize bugs).
[[nodiscard]] inline bool write_frame(int fd, std::string_view payload) {
    return write_frame_status(fd, payload) == WriteStatus::Ok;
}

/// One parsed "where to listen/connect" spec: a Unix socket path or a TCP
/// host:port.
struct Endpoint {
    enum class Kind { Unix, Tcp };
    Kind kind = Kind::Unix;
    std::string path; ///< Unix socket path (Kind::Unix)
    std::string host; ///< TCP host (Kind::Tcp)
    std::uint16_t port = 0;

    [[nodiscard]] std::string describe() const;
};

/// Decode an endpoint spec: "tcp:host:port" and "host:port" (a single ':'
/// with a numeric suffix and no '/') are TCP; "unix:path" and anything
/// else are Unix socket paths. nullopt + `*error` on a malformed spec
/// (e.g. an out-of-range port).
[[nodiscard]] std::optional<Endpoint> parse_endpoint(const std::string& spec,
                                                     std::string* error);

/// Bind + listen on a Unix-domain stream socket at `path` (unlinking a
/// stale socket file first). Invalid Fd + `*error` message on failure.
[[nodiscard]] Fd listen_unix(const std::string& path, int backlog,
                             std::string* error);

/// Connect to the daemon's socket. Invalid Fd + `*error` on failure.
[[nodiscard]] Fd connect_unix(const std::string& path, std::string* error);

/// Bind + listen on a TCP socket (SO_REUSEADDR; port 0 binds ephemeral —
/// recover the real port with local_port). Invalid Fd + `*error` on
/// failure.
[[nodiscard]] Fd listen_tcp(const std::string& host, std::uint16_t port,
                            int backlog, std::string* error);

/// Connect to a TCP peer (TCP_NODELAY: frames are latency-sensitive
/// request/response traffic, not bulk). Invalid Fd + `*error` on failure.
[[nodiscard]] Fd connect_tcp(const std::string& host, std::uint16_t port,
                             std::string* error);

/// One request/response exchange on a fresh connection: connect, send
/// `request` as one frame, read one frame into `response` under
/// `recv_timeout_ms` (<= 0: no timeout). Returns the response frame's
/// status. A failure before the response is Error with the reason (the
/// connect error, or "cannot send request") in `*error`; a failed read
/// leaves `*error` empty.
[[nodiscard]] FrameStatus round_trip(const Endpoint& endpoint,
                                     std::string_view request,
                                     long long recv_timeout_ms,
                                     std::string& response,
                                     std::string* error);

/// The locally bound TCP port of a listening socket (0 on error) — how a
/// caller who asked for port 0 learns what the kernel picked.
[[nodiscard]] std::uint16_t local_port(int fd);

/// accept(2) with EINTR retry; invalid Fd on error.
[[nodiscard]] Fd accept_connection(int listen_fd);

/// AF_UNIX stream socketpair (tests and in-process loopback).
[[nodiscard]] bool socket_pair(Fd& a, Fd& b);

/// SO_RCVTIMEO; `ms <= 0` clears the timeout.
void set_recv_timeout(int fd, long long ms);

/// Block until one of up to four `fds` (entries < 0 are ignored) is
/// readable. Returns the readable fd, or -1 on timeout/error. `timeout_ms
/// < 0` blocks indefinitely. EINTR retries. Allocates nothing: the serving
/// front end calls it once per frame.
[[nodiscard]] int wait_readable(std::initializer_list<int> fds,
                                int timeout_ms);

} // namespace psaflow::net
