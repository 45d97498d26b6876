#include "obs/log.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace psaflow::obs {

namespace {

std::int64_t wall_now_ms() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

bool needs_quoting(const std::string& value) {
    if (value.empty()) return true;
    for (char c : value)
        if (c == ' ' || c == '"' || c == '\\' || c == '=' ||
            static_cast<unsigned char>(c) < 0x20)
            return true;
    return false;
}

void append_value(std::string& out, const std::string& value) {
    if (!needs_quoting(value)) {
        out += value;
        return;
    }
    out += '"';
    for (char c : value) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

} // namespace

const char* to_string(LogLevel level) {
    switch (level) {
        case LogLevel::Trace: return "trace";
        case LogLevel::Debug: return "debug";
        case LogLevel::Info: return "info";
        case LogLevel::Warn: return "warn";
        case LogLevel::Error: return "error";
        case LogLevel::Off: return "off";
    }
    return "info";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "trace") return LogLevel::Trace;
    if (lower == "debug") return LogLevel::Debug;
    if (lower == "info") return LogLevel::Info;
    if (lower == "warn" || lower == "warning") return LogLevel::Warn;
    if (lower == "error") return LogLevel::Error;
    if (lower == "off" || lower == "none" || lower == "0") return LogLevel::Off;
    return std::nullopt;
}

std::string LogRecord::to_line() const {
    const std::time_t seconds = static_cast<std::time_t>(wall_ms / 1000);
    std::tm tm_utc{};
#if defined(_WIN32)
    gmtime_s(&tm_utc, &seconds);
#else
    gmtime_r(&seconds, &tm_utc);
#endif
    // Sized for seven full-width ints, so no tm value can truncate it.
    char stamp[96];
    std::snprintf(stamp, sizeof stamp,
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", tm_utc.tm_year + 1900,
                  tm_utc.tm_mon + 1, tm_utc.tm_mday, tm_utc.tm_hour,
                  tm_utc.tm_min, tm_utc.tm_sec,
                  static_cast<int>(wall_ms % 1000));

    std::string out = stamp;
    out += ' ';
    out += to_string(level);
    out += ' ';
    out += component;
    out += ": ";
    out += message;
    for (const auto& [key, value] : fields) {
        out += ' ';
        out += key;
        out += '=';
        append_value(out, value);
    }
    return out;
}

Logger::Logger(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_ < 64 ? capacity_ : 64);
}

Logger& Logger::global() {
    static Logger logger;
    return logger;
}

void Logger::set_level(LogLevel level) {
    std::lock_guard lock(mu_);
    level_ = level;
}

LogLevel Logger::level() const {
    std::lock_guard lock(mu_);
    return level_;
}

void Logger::set_echo_level(LogLevel level) {
    std::lock_guard lock(mu_);
    echo_ = level;
}

bool Logger::enabled(LogLevel level) const {
    std::lock_guard lock(mu_);
    return level >= level_ && level_ != LogLevel::Off &&
           level != LogLevel::Off;
}

void Logger::log(LogLevel level, std::string component, std::string message,
                 LogFields fields) {
    if (level == LogLevel::Off) return;
    std::string echo_line;
    {
        std::lock_guard lock(mu_);
        if (level < level_ && level < echo_) return;

        LogRecord record;
        record.seq = next_seq_++;
        record.wall_ms = wall_now_ms();
        record.level = level;
        record.component = std::move(component);
        record.message = std::move(message);
        record.fields = std::move(fields);

        if (level >= echo_ && echo_ != LogLevel::Off)
            echo_line = record.to_line();

        if (level >= level_ && level_ != LogLevel::Off) {
            ++total_;
            if (ring_.size() < capacity_) {
                ring_.push_back(std::move(record));
            } else {
                ring_[head_] = std::move(record);
                head_ = (head_ + 1) % capacity_;
            }
        }
    }
    // stderr write happens outside the lock; never stdout (tool output must
    // not change with the log level).
    if (!echo_line.empty())
        std::fprintf(stderr, "%s\n", echo_line.c_str());
}

std::vector<LogRecord> Logger::recent(std::size_t max_records,
                                      LogLevel min_level) const {
    std::lock_guard lock(mu_);
    std::vector<LogRecord> out;
    out.reserve(ring_.size());
    // Oldest-first walk of the ring: [head_, end) then [0, head_).
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        const std::size_t at =
            ring_.size() < capacity_ ? i : (head_ + i) % capacity_;
        const LogRecord& record = ring_[at];
        if (record.level >= min_level) out.push_back(record);
    }
    if (out.size() > max_records)
        out.erase(out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(out.size() -
                                                            max_records));
    return out;
}

std::uint64_t Logger::total() const {
    std::lock_guard lock(mu_);
    return total_;
}

std::uint64_t Logger::dropped() const {
    std::lock_guard lock(mu_);
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

void Logger::clear() {
    std::lock_guard lock(mu_);
    ring_.clear();
    head_ = 0;
    total_ = 0;
    next_seq_ = 1;
}

void log(LogLevel level, std::string component, std::string message,
         LogFields fields) {
    Logger::global().log(level, std::move(component), std::move(message),
                         std::move(fields));
}

void debug(std::string component, std::string message, LogFields fields) {
    log(LogLevel::Debug, std::move(component), std::move(message),
        std::move(fields));
}

void info(std::string component, std::string message, LogFields fields) {
    log(LogLevel::Info, std::move(component), std::move(message),
        std::move(fields));
}

void warn(std::string component, std::string message, LogFields fields) {
    log(LogLevel::Warn, std::move(component), std::move(message),
        std::move(fields));
}

void error(std::string component, std::string message, LogFields fields) {
    log(LogLevel::Error, std::move(component), std::move(message),
        std::move(fields));
}

} // namespace psaflow::obs
