// FlowSession: the front door of the flow engine.
//
// A session owns the cross-cutting wiring one flow execution needs — the
// worker-pool width, the persistent content-addressed store configuration
// and the trace accounting — so embedders (psaflowc, the batch driver, the
// fuzz harness, the bench programs) configure these once instead of
// plumbing environment variables and EngineOptions fields individually.
// Running many flows through one session shares the warm in-process caches
// and the store index: that is what makes `psaflowc --batch` cheap.
//
// A session may also carry a default flow lowered from a manifest
// (SessionOptions::flow_manifest, see flow/manifest.hpp); the core
// compile() runs it in place of the builtin standard_flow.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "flow/engine.hpp"
#include "flow/manifest.hpp"

namespace psaflow::flow {

// Environment-variable precedence (the single source of truth for it):
// an explicit SessionOptions field wins over its environment variable,
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
    /// Worker threads for independent branch paths; 0 picks the process
    /// default (PSAFLOW_JOBS or hardware concurrency). Any setting yields
    /// a byte-identical FlowResult.
    int jobs = 0;

    /// Root directory of the persistent content-addressed store. Empty
    /// keeps the process-wide configuration (PSAFLOW_CACHE_DIR, or
    /// disabled when unset).
    std::string cache_dir;

    /// Size cap for the store in bytes; 0 keeps the PSAFLOW_CACHE_MAX_MB /
    /// built-in default. Only consulted when `cache_dir` is set.
    std::uint64_t cache_max_bytes = 0;

    /// Flow manifest naming the session's default flow: text starting with
    /// '{' is an inline JSON document, anything else a file path (see
    /// flow/manifest.hpp). Validated and lowered eagerly by the FlowSession
    /// constructor, which throws psaflow::Error with a located diagnostic
    /// on any schema violation. Empty: no session default — the core
    /// compile() falls back to the builtin standard_flow().
    std::string flow_manifest;
};

class FlowSession {
public:
    FlowSession() : FlowSession(SessionOptions{}) {}
    /// Applies `options` eagerly: a non-empty cache_dir (re)configures the
    /// process-wide store before the first run.
    explicit FlowSession(SessionOptions options);

    /// Execute `flow` over `ctx` (the context is consumed; paths fork from
    /// it). `engine.jobs == 0` inherits the session's jobs setting. Counts
    /// "flow.runs" and the flow-phase wall clock "flow.wall_us" into the
    /// trace registry.
    [[nodiscard]] FlowResult run(const DesignFlow& flow, FlowContext ctx,
                                 EngineOptions engine = {});

    [[nodiscard]] const SessionOptions& options() const { return options_; }

    /// The flow lowered from SessionOptions::flow_manifest; nullptr when
    /// the session has no manifest.
    [[nodiscard]] const ManifestFlow* manifest_flow() const {
        return manifest_.has_value() ? &*manifest_ : nullptr;
    }

private:
    SessionOptions options_;
    std::optional<ManifestFlow> manifest_;
};

} // namespace psaflow::flow
