// psaflow public API.
//
// The facade over the whole system: parse a technology-agnostic HLC
// application, run the paper's implemented PSA-flow (Fig. 4) in informed or
// uninformed mode, and receive the generated designs with their emitted
// sources and predicted performance.
//
//     const auto& app = psaflow::apps::nbody();
//     auto result = psaflow::compile(app, {.mode = flow::Mode::Informed});
//     for (const auto& d : result.designs)
//         std::cout << d.name() << ": " << d.speedup << "x\n";
#pragma once

#include <string>
#include <string_view>

#include "analysis/workload.hpp"
#include "apps/apps.hpp"
#include "flow/engine.hpp"
#include "flow/manifest.hpp"
#include "flow/session.hpp"
#include "flow/standard_flow.hpp"
#include "support/cancel.hpp"

namespace psaflow {

struct RunOptions {
    flow::Mode mode = flow::Mode::Informed;
    flow::Budget budget;         ///< Fig. 3 cost feedback (optional)
    flow::CostModel cost_model;  ///< cloud prices for the budget check
    double intensity_threshold_x = 4.0; ///< Fig. 3's tunable X (FLOPs/B)
    int jobs = 0; ///< branch-path workers; 0 = PSAFLOW_JOBS / hw default

    /// Cooperative cancellation (not owned; may be null). When the token
    /// fires — explicitly or via its deadline — the flow unwinds with
    /// CancelledError at the next task boundary or interpreter poll.
    const CancelToken* cancel = nullptr;

    /// Manifest-defined flow (not owned; may be null). When set, compile()
    /// runs this flow instead of standard_flow(mode) and the manifest's
    /// engine parameters (budget / threshold_x / max_feedback_iterations)
    /// override the fields above — a flow that declares its own budget
    /// means it. When null, a session-level manifest
    /// (SessionOptions::flow_manifest) applies; the builtin standard flow
    /// is the final fallback.
    const flow::ManifestFlow* flow_manifest = nullptr;
};

/// Run the standard PSA-flow on one of the bundled applications.
[[nodiscard]] flow::FlowResult compile(const apps::Application& app,
                                       const RunOptions& options = {});

/// Run the standard PSA-flow on arbitrary HLC source. `workload` drives the
/// dynamic analyses; `allow_single_precision` gates the SP transforms.
[[nodiscard]] flow::FlowResult compile(const std::string& app_name,
                                       std::string_view source,
                                       analysis::Workload workload,
                                       bool allow_single_precision = true,
                                       const RunOptions& options = {});

/// Session-aware variants: run through the caller's FlowSession so many
/// compiles share one pool/cache/trace wiring (the batch driver's fast
/// path). `options.jobs == 0` defers to the session's jobs setting.
///
/// With a persistent store (cas::store()), every compile first looks up
/// the flow-result tier (local entries only, never a remote tier), keyed
/// on everything the flow reads: app name and source, workload digest,
/// allow_single_precision, the effective threshold_x, budget, cost model
/// and feedback cap, and the flow's identity (the mode, or the manifest's
/// canonical JSON). A hit returns
/// the stored FlowResult, bit for bit the cold one, without parsing or
/// running a task; a miss runs the flow (whose profile and
/// design-artifact tiers may still hit) and stores its result. Counted
/// as "flow_cache.hits" / "flow_cache.misses" under one "flow_cache" span.
/// FlowSession::run never consults this tier.
[[nodiscard]] flow::FlowResult compile(flow::FlowSession& session,
                                       const apps::Application& app,
                                       const RunOptions& options = {});

[[nodiscard]] flow::FlowResult compile(flow::FlowSession& session,
                                       const std::string& app_name,
                                       std::string_view source,
                                       analysis::Workload workload,
                                       bool allow_single_precision = true,
                                       const RunOptions& options = {});

/// Library version string.
[[nodiscard]] const char* version();

} // namespace psaflow
