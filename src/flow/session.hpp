// FlowSession: the front door of the flow engine.
//
// A session owns the cross-cutting wiring one flow execution needs — the
// worker-pool width, the persistent content-addressed store configuration
// and the trace accounting — so embedders (psaflowc, the batch driver, the
// fuzz harness, the bench programs) configure these once instead of
// plumbing environment variables per call. Running many flows through one
// session shares the warm in-process caches and the store index: that is
// what makes `psaflowc --batch` cheap. What a flow computes (mode, budget,
// manifest) is the caller's per-compile input (psaflow::RunOptions).
#pragma once

#include <cstdint>
#include <string>

#include "flow/engine.hpp"

namespace psaflow::flow {

// Environment-variable precedence (the single source of truth for it):
// a SessionOptions field, when set, wins over its environment variable,
// which wins over the built-in default —
//
//   jobs        : SessionOptions.jobs      > PSAFLOW_JOBS      > hardware
//                                                                concurrency
//   cache store : SessionOptions.cache_dir > PSAFLOW_CACHE_DIR > disabled
//                 (cap: cache_max_bytes > PSAFLOW_CACHE_MAX_MB > built-in)
//
// A non-empty cache_dir (re)configures the process-wide store eagerly in
// the FlowSession constructor, so later sessions in the same process
// inherit it unless they override it themselves.
struct SessionOptions {
    /// Worker threads for independent branch paths. 1 runs strictly
    /// sequentially on the calling thread; 0 picks the process default
    /// (PSAFLOW_JOBS or hardware concurrency). Any setting produces a
    /// byte-identical FlowResult: paths fork deterministically before they
    /// are scheduled and leaves merge back in flow order.
    int jobs = 0;

    /// Root directory of the persistent content-addressed store. Empty
    /// keeps the process-wide configuration (PSAFLOW_CACHE_DIR, or
    /// disabled when unset).
    std::string cache_dir;

    /// Size cap for the store in bytes; 0 keeps the PSAFLOW_CACHE_MAX_MB /
    /// built-in default. Only consulted when `cache_dir` is set.
    std::uint64_t cache_max_bytes = 0;
};

class FlowSession {
public:
    FlowSession() : FlowSession(SessionOptions{}) {}
    /// Applies `options` eagerly: a non-empty cache_dir (re)configures the
    /// process-wide store before the first run.
    explicit FlowSession(SessionOptions options);

    /// Execute `flow` over `ctx` (the context is consumed; paths fork from
    /// it) on the session's workers, forking at branch points, finalising
    /// every leaf and applying the Fig. 3 budget feedback in informed mode.
    /// Counts "flow.runs" and the flow-phase wall clock "flow.wall_us" into
    /// the trace registry.
    [[nodiscard]] FlowResult run(const DesignFlow& flow, FlowContext ctx,
                                 const EngineOptions& engine = {});

    [[nodiscard]] const SessionOptions& options() const { return options_; }

private:
    SessionOptions options_;
};

} // namespace psaflow::flow
