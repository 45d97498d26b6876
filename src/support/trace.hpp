// Task tracing and metrics.
//
// The flow engine, the DSE engines and the interpreter report into a
// process-wide registry: per-task *spans* (name, category, thread, wall
// clock, work units) and named *counters* (interpreter steps, profile-cache
// hits/misses, ...). psaflowc exports the registry as JSON (--trace-out);
// the fig5/fig6 harnesses print a summary. Span collection can be disabled
// with PSAFLOW_TRACE=0; counters are always live (they are a handful of
// relaxed atomics per run, and tests assert on them).
//
// Spans are *causal*: every span carries a process-unique id and the id of
// its parent — the span that was active on the recording thread when it
// opened. The active span follows work across threads: TaskGroup::run
// captures the submitter's active span, so a branch-path job running on a
// pool thread parents under the flow span that forked it, and every
// request's spans form one rooted tree. obs/chrome_trace renders that tree
// as Chrome trace-event JSON (`psaflowc --trace-format chrome`).
//
// JSON schema (version 2; see README "Observability"):
//   {
//     "schema_version": 2,
//     "spans": [
//       {"name": str, "category": str, "id": int, "parent": int,
//        "thread": int, "start_us": int, "duration_us": int,
//        "work_units": num}
//     ],
//     "counters": {"<name>": int, ...}
//   }
// Version history: v1 had no schema_version field and no id/parent.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace psaflow::trace {

struct Span {
    std::string name;     ///< e.g. "task:identify-hotspot-loops"
    std::string category; ///< "flow" | "task" | "dse" | "analysis" | "interp:tree" | "interp:vm" | ...
    std::uint64_t id = 0;          ///< process-unique span id (never 0)
    std::uint64_t parent = 0;      ///< enclosing span's id; 0 = a root
    std::uint64_t thread = 0;      ///< small per-thread ordinal, stable per run
    std::uint64_t start_us = 0;    ///< offset from registry creation/clear
    std::uint64_t duration_us = 0; ///< wall-clock microseconds
    double work_units = 0.0;       ///< domain cost (interp cost units, steps)
};

class Registry {
public:
    /// A private registry (empty, span clock starting now). The serving
    /// layer creates one per request so concurrent clients' metrics cannot
    /// bleed into each other; install it with ScopedRegistry.
    Registry();

    [[nodiscard]] static Registry& global();

    /// The calling thread's recording sink: the innermost ScopedRegistry,
    /// or global() when none is installed. Every producer (spans, flow/
    /// interp/cache counters) records through current(), so one request's
    /// work — including branch-path jobs, which re-install their parent's
    /// sink on the pool thread — lands in that request's registry.
    [[nodiscard]] static Registry& current();

    /// Span collection toggle (counters stay on). Initialised from the
    /// PSAFLOW_TRACE environment variable ("0" disables).
    void set_enabled(bool on);
    [[nodiscard]] bool enabled() const;

    /// Drop all spans and zero all counters; restarts the span clock.
    void clear();

    void add_span(Span span);
    [[nodiscard]] std::vector<Span> spans() const;

    /// Add `delta` to the named counter (creates it at zero).
    void count(const std::string& name, std::uint64_t delta);
    [[nodiscard]] std::uint64_t counter(const std::string& name) const;
    [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;

    /// Microseconds since creation/clear (the span time base).
    [[nodiscard]] std::uint64_t now_us() const;

    /// Serialise spans + counters using the schema above.
    [[nodiscard]] std::string to_json() const;

    /// Fold `other` into this registry: counters add, spans append with
    /// their start offsets re-based onto this registry's span clock and
    /// their thread ordinals remapped onto fresh tracks (two registries may
    /// have recorded unrelated work from the same pool threads; without the
    /// remap a merged Chrome trace would interleave them on one track).
    /// Within one process span ids are unique, so parent links usually
    /// survive unchanged; but a cross-process merge (two shards both count
    /// ids from 1) can collide, so colliding incoming ids are remapped onto
    /// fresh process-unique ids, with parent links that referenced a
    /// remapped id rewritten to follow it. A parent id that exists only in
    /// this registry is a cross-registry link and survives unchanged. The
    /// batch driver and the daemon merge each request's private registry
    /// into global() so process-wide totals (--trace-out) still accumulate.
    void merge_from(const Registry& other);

private:
    mutable std::mutex mu_;
    bool enabled_ = true;
    std::int64_t epoch_ns_ = 0;
    std::uint64_t max_thread_ = 0; ///< highest track ordinal present
    std::vector<Span> spans_;
    std::map<std::string, std::uint64_t> counters_;
};

/// The id of the span currently open on the calling thread (0 when none):
/// the parent a newly opened span will link to. Capture it before handing
/// work to another thread and restore it there with ScopedParent.
[[nodiscard]] std::uint64_t current_span_id();

/// A process-unique span id for spans that ride the wire (cross-process
/// trace propagation): 32 bits of per-process salt above a 20-bit
/// sequence, with bit 52 set. Never 0, exact in a JSON double (< 2^53),
/// and unlike the sequential ids ScopedSpan mints — which every process
/// counts from 1 — two processes can only collide on a 2^-32 salt
/// coincidence. The serving layer uses these for the synthetic hop spans
/// it injects into responses (serve/wire_trace.hpp).
[[nodiscard]] std::uint64_t wire_span_id();

/// The distributed trace id adopted by the calling thread (0 = none).
/// The serving layer installs the request's trace id (ScopedTraceId)
/// around traced work so deeper layers — e.g. the remote-CAS client —
/// can forward it onward without threading it through every signature.
[[nodiscard]] std::uint64_t current_trace_id();

/// RAII install of `trace_id` as the calling thread's distributed trace
/// id (current_trace_id()); restores the previous id on destruction.
class ScopedTraceId {
public:
    explicit ScopedTraceId(std::uint64_t trace_id) noexcept;
    ~ScopedTraceId();

    ScopedTraceId(const ScopedTraceId&) = delete;
    ScopedTraceId& operator=(const ScopedTraceId&) = delete;

private:
    std::uint64_t previous_;
};

/// RAII span: measures construction-to-destruction wall clock and registers
/// the span on destruction (no-op when span collection is disabled). While
/// alive it is the calling thread's active span (current_span_id()).
class ScopedSpan {
public:
    ScopedSpan(std::string name, std::string category);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /// Attach a domain work measure (interpreter cost units, DSE points).
    void set_work_units(double units) { work_units_ = units; }

    /// This span's process-unique id (0 when span collection is disabled).
    [[nodiscard]] std::uint64_t id() const { return id_; }

private:
    Registry* registry_ = nullptr; ///< sink captured at construction
    bool active_ = false;
    std::string name_;
    std::string category_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t start_us_ = 0;
    double work_units_ = 0.0;
};

/// RAII install of `registry` as the calling thread's recording sink
/// (Registry::current()); restores the previous sink on destruction.
class ScopedRegistry {
public:
    explicit ScopedRegistry(Registry& registry) noexcept;
    ~ScopedRegistry();

    ScopedRegistry(const ScopedRegistry&) = delete;
    ScopedRegistry& operator=(const ScopedRegistry&) = delete;

private:
    Registry* previous_;
};

/// RAII install of `parent_span` as the calling thread's active span:
/// spans opened underneath link to it. Used when work hops threads (the
/// thread pool installs the submitter's active span around every job).
class ScopedParent {
public:
    explicit ScopedParent(std::uint64_t parent_span) noexcept;
    ~ScopedParent();

    ScopedParent(const ScopedParent&) = delete;
    ScopedParent& operator=(const ScopedParent&) = delete;

private:
    std::uint64_t previous_;
};

} // namespace psaflow::trace
