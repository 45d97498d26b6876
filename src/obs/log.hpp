// Leveled structured logging with a bounded in-memory ring.
//
// psaflow's long-running surfaces (psaflowd above all) need their "what
// just happened" channel to be machine-readable and queryable after the
// fact, not a scatter of ad-hoc stderr prints. Every record carries a
// level, a component tag ("serve", "cas", "flow", ...), a message and
// key=value fields; records land in a fixed-capacity ring buffer (the
// daemon serves the ring over its socket as {"type":"logs"}) and are
// echoed to stderr when at or above the echo threshold (capture level
// info and echo level warn by default; a tool's main sets the global
// logger's levels).
//
// The logger never writes to stdout, so tool output stays byte-identical
// whatever the log level — the obs_smoke test pins this down.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace psaflow::obs {

enum class LogLevel { Trace = 0, Debug, Info, Warn, Error, Off };

[[nodiscard]] const char* to_string(LogLevel level);
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view name);

/// Ordered key=value pairs attached to a record. Values are plain strings;
/// callers format numbers (std::to_string / format_compact) themselves.
using LogFields = std::vector<std::pair<std::string, std::string>>;

struct LogRecord {
    std::uint64_t seq = 0;   ///< monotonically increasing per logger
    std::int64_t wall_ms = 0; ///< unix epoch milliseconds
    LogLevel level = LogLevel::Info;
    std::string component;
    std::string message;
    LogFields fields;

    /// One-line rendering: `<iso-time> LEVEL component: message k=v ...`
    /// (values with spaces/quotes are double-quoted and escaped).
    [[nodiscard]] std::string to_line() const;
};

class Logger {
public:
    static constexpr std::size_t kDefaultCapacity = 1024;

    /// A private logger (tests).
    explicit Logger(std::size_t capacity = kDefaultCapacity);

    /// The process-wide logger every component records through.
    [[nodiscard]] static Logger& global();

    void set_level(LogLevel level);
    [[nodiscard]] LogLevel level() const;
    void set_echo_level(LogLevel level);

    /// True when a record at `level` would be captured — guard expensive
    /// field formatting with this.
    [[nodiscard]] bool enabled(LogLevel level) const;

    void log(LogLevel level, std::string component, std::string message,
             LogFields fields = {});

    /// Newest-last snapshot of the ring, optionally bounded and filtered.
    [[nodiscard]] std::vector<LogRecord>
    recent(std::size_t max_records = kDefaultCapacity,
           LogLevel min_level = LogLevel::Trace) const;

    /// Records accepted since construction/clear (including overwritten).
    [[nodiscard]] std::uint64_t total() const;
    /// Records lost to ring wrap-around.
    [[nodiscard]] std::uint64_t dropped() const;

    void clear();

private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    LogLevel level_ = LogLevel::Info;
    LogLevel echo_ = LogLevel::Warn;
    std::uint64_t next_seq_ = 1;
    std::uint64_t total_ = 0;
    std::vector<LogRecord> ring_; ///< circular once full
    std::size_t head_ = 0;        ///< next write position once full
};

// Convenience recorders onto Logger::global().
void log(LogLevel level, std::string component, std::string message,
         LogFields fields = {});
void debug(std::string component, std::string message, LogFields fields = {});
void info(std::string component, std::string message, LogFields fields = {});
void warn(std::string component, std::string message, LogFields fields = {});
void error(std::string component, std::string message, LogFields fields = {});

} // namespace psaflow::obs
