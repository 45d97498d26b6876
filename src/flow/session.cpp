#include "flow/session.hpp"

#include <chrono>
#include <utility>

#include "support/cas/cas.hpp"
#include "support/trace.hpp"

namespace psaflow::flow {

FlowSession::FlowSession(SessionOptions options)
    : options_(std::move(options)) {
    if (!options_.cache_dir.empty())
        cas::configure(options_.cache_dir, options_.cache_max_bytes);
    if (!options_.flow_manifest.empty())
        manifest_.emplace(load_manifest(options_.flow_manifest));
}

FlowResult FlowSession::run(const DesignFlow& flow, FlowContext ctx,
                            EngineOptions engine) {
    if (engine.jobs <= 0) engine.jobs = options_.jobs;
    const auto start = std::chrono::steady_clock::now();
    FlowResult result = detail::run_flow_impl(flow, std::move(ctx), engine);
    const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    trace::Registry::current().count("flow.runs", 1);
    trace::Registry::current().count("flow.wall_us",
                                    static_cast<std::uint64_t>(wall_us));
    return result;
}

} // namespace psaflow::flow
