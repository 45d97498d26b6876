#include "core/psaflow.hpp"

#include <optional>

#include "flow/payload.hpp"
#include "frontend/parser.hpp"
#include "support/cas/cas.hpp"
#include "support/trace.hpp"

namespace psaflow {

namespace {

/// Flow-result key: every input the flow reads. The session's jobs and
/// `cancel` stay out (any jobs setting yields the same result; a cancelled
/// run is never stored).
std::uint64_t flow_result_key(const std::string& app_name,
                              std::string_view source,
                              std::uint64_t workload_digest,
                              bool allow_single_precision, double threshold_x,
                              const flow::EngineOptions& engine,
                              const flow::ManifestFlow* manifest,
                              flow::Mode mode) {
    cas::Hasher h;
    h.str("flow-result");
    h.str(app_name).str(source);
    h.u64(workload_digest);
    h.boolean(allow_single_precision).real(threshold_x);
    h.real(engine.budget.max_run_cost);
    const flow::CostModel& cost = engine.cost_model;
    h.real(cost.cpu_per_hour).real(cost.gpu_per_hour).real(cost.fpga_per_hour);
    h.real(cost.host_share_watts);
    h.i64(engine.max_feedback_iterations);
    if (manifest != nullptr)
        h.str("manifest").str(manifest->canonical);
    else
        h.str("builtin").u64(static_cast<std::uint64_t>(mode));
    return h.digest();
}

} // namespace

flow::FlowResult compile(flow::FlowSession& session,
                         const apps::Application& app,
                         const RunOptions& options) {
    const flow::ManifestFlow* manifest = options.flow_manifest;
    double threshold_x = options.intensity_threshold_x;
    flow::EngineOptions engine = options.engine;
    if (manifest != nullptr) {
        if (manifest->threshold_x.has_value())
            threshold_x = *manifest->threshold_x;
        if (manifest->max_run_cost.has_value())
            engine.budget.max_run_cost = *manifest->max_run_cost;
        if (manifest->max_feedback_iterations.has_value())
            engine.max_feedback_iterations =
                *manifest->max_feedback_iterations;
    }

    // Flow-result tier: with a store, a compile whose inputs were all seen
    // before is one store read, local first and then the remote tier, and
    // a computed result is published like every other tier's entry. A
    // flow built in code rather than lowered from a document has no
    // canonical text to key on, so it always runs.
    cas::CasStore* disk = session.store();
    const bool tiered = disk != nullptr && (manifest == nullptr ||
                                            !manifest->canonical.empty());
    std::uint64_t key = 0;
    std::uint64_t digest = 0;
    if (tiered) {
        poll_cancellation(options.cancel);
        trace::ScopedSpan span("flow_cache", "cache");
        digest = flow::workload_digest(app.workload);
        key = flow_result_key(app.name, app.source, digest,
                              app.allow_single_precision, threshold_x, engine,
                              manifest, options.mode);
        if (auto payload = disk->get(key)) {
            flow::FlowResult cached;
            if (flow::parse_flow_result(*payload, cached)) {
                trace::Registry::current().count("flow_cache.hits", 1);
                return cached;
            }
        }
        trace::Registry::current().count("flow_cache.misses", 1);
    }

    auto module = frontend::parse_module(app.source, app.name);
    flow::FlowContext ctx(app.name, std::move(module), app.workload);
    if (digest != 0) ctx.seed_workload_digest(digest);
    ctx.allow_single_precision = app.allow_single_precision;
    ctx.intensity_threshold_x = threshold_x;
    ctx.cancel = options.cancel;

    std::optional<flow::DesignFlow> builtin;
    if (manifest == nullptr)
        builtin.emplace(flow::standard_flow(options.mode));
    const flow::DesignFlow& design_flow =
        manifest != nullptr ? manifest->flow : *builtin;
    flow::FlowResult result = session.run(design_flow, std::move(ctx), engine);
    if (tiered) disk->put(key, flow::serialize_flow_result(result));
    return result;
}

const char* version() { return "psaflow 1.0.0"; }

} // namespace psaflow
