#include "support/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace psaflow::trace {

namespace {

std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Small stable ordinal for the calling thread (1, 2, 3, ... in first-use
/// order) — friendlier in reports than std::thread::id hashes.
std::uint64_t thread_ordinal() {
    static std::atomic<std::uint64_t> next{1};
    thread_local std::uint64_t mine = next.fetch_add(1);
    return mine;
}

/// Process-unique span id. Ids being unique across every registry is what
/// lets merge_from keep parent links intact without a remap pass.
std::uint64_t next_span_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1);
}

/// JSON string escaping for span names (quotes, backslashes, control chars).
void append_escaped(std::string& out, const std::string& text) {
    for (char c : text) {
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
}

std::string format_work_units(double units) {
    // Counters-as-doubles: print integral values without an exponent, keep
    // the rest in shortest-round-trip form.
    std::ostringstream os;
    if (std::isfinite(units) && units == std::floor(units) &&
        std::abs(units) < 1e15) {
        os << static_cast<long long>(units);
    } else {
        os.precision(17);
        os << units;
    }
    return os.str();
}

thread_local Registry* tl_registry = nullptr;
thread_local std::uint64_t tl_active_span = 0;
thread_local std::uint64_t tl_trace_id = 0;

} // namespace

Registry::Registry() { epoch_ns_ = steady_ns(); }

Registry& Registry::global() {
    static Registry registry;
    return registry;
}

Registry& Registry::current() {
    return tl_registry != nullptr ? *tl_registry : global();
}

ScopedRegistry::ScopedRegistry(Registry& registry) noexcept
    : previous_(tl_registry) {
    tl_registry = &registry;
}

ScopedRegistry::~ScopedRegistry() { tl_registry = previous_; }

std::uint64_t current_span_id() { return tl_active_span; }

std::uint64_t wire_span_id() {
    // Per-process salt: finalised mix of the start clock and the pid, so
    // two shards launched the same nanosecond still differ.
    static const std::uint64_t salt = [] {
        std::uint64_t mix = static_cast<std::uint64_t>(steady_ns()) ^
                            (static_cast<std::uint64_t>(::getpid()) << 32);
        mix += 0x9e3779b97f4a7c15ULL;
        mix = (mix ^ (mix >> 30)) * 0xbf58476d1ce4e5b9ULL;
        mix = (mix ^ (mix >> 27)) * 0x94d049bb133111ebULL;
        return mix ^ (mix >> 31);
    }();
    // The salt is the sequence's starting point in a 52-bit space: a
    // process repeats an id only after 2^52 spans, and two processes
    // collide only if their ranges overlap.
    static std::atomic<std::uint64_t> next{0};
    constexpr std::uint64_t kSeqMask = (1ull << 52) - 1;
    const std::uint64_t seq = next.fetch_add(1);
    return (1ull << 52) | ((salt + seq) & kSeqMask);
}

std::uint64_t current_trace_id() { return tl_trace_id; }

ScopedTraceId::ScopedTraceId(std::uint64_t trace_id) noexcept
    : previous_(tl_trace_id) {
    tl_trace_id = trace_id;
}

ScopedTraceId::~ScopedTraceId() { tl_trace_id = previous_; }

ScopedParent::ScopedParent(std::uint64_t parent_span) noexcept
    : previous_(tl_active_span) {
    tl_active_span = parent_span;
}

ScopedParent::~ScopedParent() { tl_active_span = previous_; }

void Registry::set_enabled(bool on) {
    std::lock_guard lock(mu_);
    enabled_ = on;
}

bool Registry::enabled() const {
    std::lock_guard lock(mu_);
    return enabled_;
}

void Registry::clear() {
    std::lock_guard lock(mu_);
    spans_.clear();
    counters_.clear();
    max_thread_ = 0;
    epoch_ns_ = steady_ns();
}

void Registry::add_span(Span span) {
    std::lock_guard lock(mu_);
    if (!enabled_) return;
    max_thread_ = std::max(max_thread_, span.thread);
    spans_.push_back(std::move(span));
}

std::vector<Span> Registry::spans() const {
    std::lock_guard lock(mu_);
    return spans_;
}

void Registry::count(const std::string& name, std::uint64_t delta) {
    std::lock_guard lock(mu_);
    counters_[name] += delta;
}

std::uint64_t Registry::counter(const std::string& name) const {
    std::lock_guard lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> Registry::counters() const {
    std::lock_guard lock(mu_);
    return counters_;
}

std::uint64_t Registry::now_us() const {
    std::int64_t epoch;
    {
        std::lock_guard lock(mu_);
        epoch = epoch_ns_;
    }
    const std::int64_t delta = steady_ns() - epoch;
    return delta <= 0 ? 0 : static_cast<std::uint64_t>(delta / 1000);
}

void Registry::merge_from(const Registry& other) {
    std::vector<Span> spans;
    std::map<std::string, std::uint64_t> counters;
    std::int64_t other_epoch;
    {
        std::lock_guard lock(other.mu_);
        spans = other.spans_;
        counters = other.counters_;
        other_epoch = other.epoch_ns_;
    }
    std::lock_guard lock(mu_);
    // Re-base span starts: `other` started its clock later than (or at)
    // this registry's epoch; shift by the epoch delta so merged spans sit
    // on this registry's timeline.
    const std::int64_t delta_us = (other_epoch - epoch_ns_) / 1000;
    // Remap the source's thread ordinals onto tracks this registry has not
    // used yet (sorted, so the assignment is deterministic for a given
    // source registry).
    std::map<std::uint64_t, std::uint64_t> track;
    for (const Span& span : spans) track.emplace(span.thread, 0);
    for (auto& [from, to] : track) to = ++max_thread_;
    for (Span& span : spans) {
        const std::int64_t start =
            static_cast<std::int64_t>(span.start_us) + delta_us;
        span.start_us = start > 0 ? static_cast<std::uint64_t>(start) : 0;
        span.thread = track[span.thread];
        spans_.push_back(std::move(span));
    }
    for (const auto& [name, value] : counters) counters_[name] += value;
}

std::string Registry::to_json() const {
    std::vector<Span> spans;
    std::map<std::string, std::uint64_t> counters;
    {
        std::lock_guard lock(mu_);
        spans = spans_;
        counters = counters_;
    }

    std::string out = "{\n  \"schema_version\": 2,\n  \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"name\": \"";
        append_escaped(out, s.name);
        out += "\", \"category\": \"";
        append_escaped(out, s.category);
        out += "\", \"id\": " + std::to_string(s.id);
        out += ", \"parent\": " + std::to_string(s.parent);
        out += ", \"thread\": " + std::to_string(s.thread);
        out += ", \"start_us\": " + std::to_string(s.start_us);
        out += ", \"duration_us\": " + std::to_string(s.duration_us);
        out += ", \"work_units\": " + format_work_units(s.work_units);
        out += "}";
    }
    out += spans.empty() ? "],\n" : "\n  ],\n";
    out += "  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        append_escaped(out, name);
        out += "\": " + std::to_string(value);
    }
    out += counters.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

ScopedSpan::ScopedSpan(std::string name, std::string category)
    : registry_(&Registry::current()), name_(std::move(name)),
      category_(std::move(category)) {
    active_ = registry_->enabled();
    if (active_) {
        start_us_ = registry_->now_us();
        id_ = next_span_id();
        parent_ = tl_active_span;
        tl_active_span = id_;
    }
}

ScopedSpan::~ScopedSpan() {
    if (!active_) return;
    tl_active_span = parent_;
    Registry& reg = *registry_;
    Span span;
    span.name = std::move(name_);
    span.category = std::move(category_);
    span.id = id_;
    span.parent = parent_;
    span.thread = thread_ordinal();
    span.start_us = start_us_;
    const std::uint64_t end = reg.now_us();
    span.duration_us = end > start_us_ ? end - start_us_ : 0;
    span.work_units = work_units_;
    reg.add_span(std::move(span));
}

} // namespace psaflow::trace
