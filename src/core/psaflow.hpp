// psaflow public API.
//
// The facade over the whole system: parse a technology-agnostic HLC
// application, run the paper's implemented PSA-flow (Fig. 4) in informed or
// uninformed mode, and receive the generated designs with their emitted
// sources and predicted performance.
//
//     psaflow::flow::FlowSession session;
//     psaflow::RunOptions options;
//     options.mode = psaflow::flow::Mode::Uninformed;
//     auto result = psaflow::compile(session, psaflow::apps::nbody(), options);
//     for (const auto& d : result.designs)
//         std::cout << d.name() << ": " << d.speedup << "x\n";
//
// Raw HLC source compiles the same way: fill an apps::Application with a
// name, the source and its workload.
#pragma once

#include "apps/apps.hpp"
#include "flow/engine.hpp"
#include "flow/manifest.hpp"
#include "flow/session.hpp"
#include "flow/standard_flow.hpp"
#include "support/cancel.hpp"

namespace psaflow {

/// What one compile runs. The session (flow::SessionOptions) owns how it
/// runs: worker pool, profile cache and persistent store.
struct RunOptions {
    flow::Mode mode = flow::Mode::Informed;
    double intensity_threshold_x = 4.0; ///< Fig. 3's tunable X (FLOPs/B)
    /// Fig. 3 cost feedback: budget, cloud prices and the feedback cap.
    flow::EngineOptions engine;

    /// Cooperative cancellation (not owned; may be null). When the token
    /// fires — explicitly or via its deadline — the flow unwinds with
    /// CancelledError at the next task boundary or interpreter poll.
    const CancelToken* cancel = nullptr;

    /// Manifest-defined flow (not owned; may be null). When set, compile()
    /// runs this flow instead of standard_flow(mode) and the manifest's
    /// engine parameters (budget / threshold_x / max_feedback_iterations)
    /// override the fields above — a flow that declares its own budget
    /// means it.
    const flow::ManifestFlow* flow_manifest = nullptr;
};

/// Run a PSA-flow on `app` through `session`, so many compiles share one
/// pool, profile cache and store. `app.workload` drives the dynamic analyses;
/// `app.allow_single_precision` gates the SP transforms.
///
/// With a persistent store (session.store()), every compile first looks up
/// the flow-result tier, keyed on everything the flow reads: app name and
/// source, workload digest, allow_single_precision, the effective
/// threshold_x, budget, cost model and feedback cap, and the flow's
/// identity (the mode, or the manifest's canonical JSON). Like every tier
/// it reads the local store, then through to the remote tier when one is
/// attached (a remote hit is written locally), and publishes what it
/// stores upstream (CasStore::get / put). A hit returns the stored
/// FlowResult, bit for bit the cold one, without parsing or running a
/// task; a miss runs the flow (whose profile and design-artifact tiers may
/// still hit) and stores its result. Counted
/// as "flow_cache.hits" / "flow_cache.misses" under one "flow_cache" span.
/// FlowSession::run never consults this tier.
[[nodiscard]] flow::FlowResult compile(flow::FlowSession& session,
                                       const apps::Application& app,
                                       const RunOptions& options = {});

/// Library version string.
[[nodiscard]] const char* version();

} // namespace psaflow
