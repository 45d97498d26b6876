// FlowSession: the front door of the flow engine.
//
// A session owns the state flow executions share: the branch-path worker
// pool, the in-memory profile cache and the persistent content-addressed
// store. None of it is process-wide, so two sessions in one process (two
// daemons, a test's cold and warm runs) share no cache, while the flows of
// one session (`psaflowc --batch`, a psaflowd's workers) share the warm
// ones. What a flow computes (mode, budget, manifest) is the caller's
// per-compile input (psaflow::RunOptions).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "analysis/profile_cache.hpp"
#include "flow/engine.hpp"
#include "support/cas/cas.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace psaflow::flow {

struct SessionOptions {
    /// Worker threads for independent branch paths. 1 runs strictly
    /// sequentially on the calling thread; 0 uses the hardware
    /// concurrency. Any setting produces a byte-identical FlowResult:
    /// paths fork deterministically before they are scheduled and leaves
    /// merge back in flow order.
    int jobs = 0;

    /// Root directory of the session's persistent content-addressed store.
    /// Empty: no store (no disk tiers).
    std::string cache_dir;

    /// Size cap for the store in bytes; 0 = CasStore::kDefaultMaxBytes.
    std::uint64_t cache_max_bytes = 0;

    /// Memoize profiling interpreter runs (analysis::ProfileCache). Off,
    /// every dynamic analysis runs the interpreter.
    bool profile_cache = true;
};

/// A tool's session settings: each flag that was given, else its PSAFLOW_*
/// variable, else the built-in default.
[[nodiscard]] SessionOptions session_options(const cli::FlowFlags& flags,
                                             const cli::Environment& env);

class FlowSession {
public:
    FlowSession() : FlowSession(SessionOptions{}) {}
    /// Opens the store (when `cache_dir` is set) and starts the pool (when
    /// the resolved jobs exceed 1).
    explicit FlowSession(SessionOptions options);

    /// Execute `flow` over `ctx` (the context is consumed; paths fork from
    /// it) on the session's workers, forking at branch points, finalising
    /// every leaf and applying the Fig. 3 budget feedback in informed mode.
    /// Stamps the session's profile cache and store onto `ctx`. Counts
    /// "flow.runs" and the flow-phase wall clock "flow.wall_us" into the
    /// trace registry. Safe to call from several threads at once.
    [[nodiscard]] FlowResult run(const DesignFlow& flow, FlowContext ctx,
                                 const EngineOptions& engine = {});

    [[nodiscard]] const SessionOptions& options() const { return options_; }
    /// The persistent store; null without a cache_dir.
    [[nodiscard]] cas::CasStore* store() { return store_.get(); }
    [[nodiscard]] analysis::ProfileCache& profile_cache() { return cache_; }

private:
    SessionOptions options_;
    std::unique_ptr<cas::CasStore> store_;
    analysis::ProfileCache cache_;
    std::optional<ThreadPool> pool_;
};

} // namespace psaflow::flow
