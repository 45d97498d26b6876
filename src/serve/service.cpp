#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>

#include "core/psaflow.hpp"
#include "obs/log.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace psaflow::serve {

namespace {

/// Body of execute_request, running with the request's private registry
/// already installed; split out so the wrapper can time it and harvest the
/// registry regardless of how it returns.
CompileOutcome run_compile(flow::FlowSession& session,
                           const CompileRequest& req,
                           const CancelToken* cancel) {
    CompileOutcome outcome;

    const apps::Application* app = nullptr;
    try {
        app = &apps::application_by_name(req.app);
    } catch (const Error& e) {
        outcome.error_kind = ErrorKind::BadRequest;
        outcome.error = e.what();
        obs::warn("serve", "rejected compile request",
                  {{"app", req.app}, {"error", e.what()}});
        return outcome;
    }

    RunOptions options;
    options.mode = req.mode == "informed" ? flow::Mode::Informed
                                          : flow::Mode::Uninformed;
    options.engine.budget.max_run_cost = req.budget;
    options.intensity_threshold_x = req.threshold_x;
    options.cancel = cancel;
    options.flow_manifest = req.flow.get();

    flow::FlowResult result;
    try {
        result = compile(session, *app, options);
    } catch (const CancelledError& e) {
        outcome.error_kind = ErrorKind::DeadlineExceeded;
        outcome.error = std::string("flow failed: ") + e.what();
        obs::info("serve", "compile deadline exceeded",
                  {{"app", req.app}, {"reason", e.what()}});
        return outcome;
    } catch (const Error& e) {
        outcome.error_kind = ErrorKind::Internal;
        outcome.error = std::string("flow failed: ") + e.what();
        obs::error("serve", "compile failed",
                   {{"app", req.app}, {"error", e.what()}});
        return outcome;
    }
    outcome.decisions = std::move(result.decisions);

    // File creation is its own layer of a request; work units are bytes.
    trace::ScopedSpan write_span("write_designs", "io");
    std::size_t bytes_written = 0;
    std::filesystem::create_directories(req.out_dir);
    CsvWriter summary({"design", "target", "device", "synthesizable",
                       "hotspot_seconds", "speedup_vs_1t", "loc_delta",
                       "source_file"});

    for (const auto& design : result.designs) {
        const std::string ext =
            design.spec.target == codegen::TargetKind::CpuFpga ? ".sycl.cpp"
            : design.spec.target == codegen::TargetKind::CpuGpu ? ".hip.cpp"
                                                                : ".cpp";
        const std::string filename = design.name() + ext;
        const std::filesystem::path path =
            std::filesystem::path(req.out_dir) / filename;
        std::ofstream file(path);
        if (!file) {
            outcome.error_kind = ErrorKind::Internal;
            outcome.error = "cannot write " + path.string();
            obs::error("serve", "cannot write design file",
                       {{"app", req.app}, {"path", path.string()}});
            return outcome;
        }
        file << design.source;
        bytes_written += design.source.size();

        summary.add_row({design.name(),
                         codegen::to_string(design.spec.target),
                         platform::to_string(design.spec.device),
                         design.synthesizable ? "yes" : "no",
                         format_compact(design.hotspot_seconds, 6),
                         format_compact(design.speedup, 4),
                         format_compact(design.loc_delta, 4),
                         filename});

        DesignRow row;
        row.name = design.name();
        row.target = codegen::to_string(design.spec.target);
        row.device = platform::to_string(design.spec.device);
        row.synthesizable = design.synthesizable;
        row.hotspot_seconds = design.hotspot_seconds;
        row.speedup = design.speedup;
        row.loc_delta = design.loc_delta;
        row.filename = filename;
        outcome.designs.push_back(std::move(row));

        if (design.synthesizable && design.speedup > outcome.best_speedup)
            outcome.best_speedup = design.speedup;
    }

    const std::filesystem::path summary_path =
        std::filesystem::path(req.out_dir) / (app->name + "-summary.csv");
    const std::string summary_text = summary.to_string();
    std::ofstream summary_file(summary_path);
    summary_file << summary_text;
    bytes_written += summary_text.size();
    write_span.set_work_units(static_cast<double>(bytes_written));

    outcome.ok = true;
    outcome.error_kind = ErrorKind::None;
    outcome.design_count = result.designs.size();
    outcome.reference_seconds = result.reference_seconds;
    outcome.summary_path = summary_path.string();
    return outcome;
}

} // namespace

CompileOutcome execute_request(flow::FlowSession& session,
                               const CompileRequest& req,
                               const CancelToken* cancel,
                               trace::Registry* merge_into,
                               const RequestTrace* req_trace) {
    // A request-armed deadline when no caller token was provided: the CLI
    // paths land here; the daemon passes its own token, armed at receipt.
    CancelToken local_token;
    if (cancel == nullptr && req.deadline_ms > 0) {
        local_token.set_deadline_after(
            std::chrono::milliseconds(req.deadline_ms));
        cancel = &local_token;
    }

    trace::Registry request_registry;
    request_registry.set_enabled(trace::Registry::global().enabled());

    // Distributed-trace adoption: the request's spans parent under a
    // synthetic serve:execute span, and the trace id rides the thread so
    // deeper layers (remote CAS) forward it onward. Hop spans are
    // synthesized even when span *collection* is off — they come from
    // independent timing, so the cross-process tree stays rooted.
    const bool traced = req_trace != nullptr && req_trace->trace_id != 0;
    const std::uint64_t root_id = traced ? trace::wire_span_id() : 0;
    const std::uint64_t exec_id = traced ? trace::wire_span_id() : 0;

    const auto start = std::chrono::steady_clock::now();
    CompileOutcome outcome;
    {
        trace::ScopedRegistry scope(request_registry);
        std::optional<trace::ScopedTraceId> scoped_trace;
        std::optional<trace::ScopedParent> scoped_parent;
        if (traced) {
            scoped_trace.emplace(req_trace->trace_id);
            scoped_parent.emplace(exec_id);
        }
        try {
            outcome = run_compile(session, req, cancel);
        } catch (const std::exception& e) {
            // Belt-and-braces failure isolation: nothing past run_compile's
            // own handlers may escape into a daemon worker loop.
            outcome = CompileOutcome{};
            outcome.error_kind = ErrorKind::Internal;
            outcome.error = std::string("flow failed: ") + e.what();
        }
    }
    outcome.wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    outcome.counters = request_registry.counters();
    outcome.spans = request_registry.spans();
    if (merge_into != nullptr) merge_into->merge_from(request_registry);

    if (traced) {
        // Re-base the natural spans behind the queue wait and wrap them
        // in the hop spans (see RequestTrace). Appended after the merge:
        // hop spans describe the wire hop, not this process's work.
        const std::uint64_t queue_us = req_trace->queue_wait_us;
        std::uint64_t exec_us = outcome.wall_us;
        for (trace::Span& span : outcome.spans) {
            span.start_us += queue_us;
            // The private registry's clock starts a hair before wall_us's
            // does; stretch the execute window so children still nest.
            exec_us = std::max(exec_us,
                               span.start_us + span.duration_us - queue_us);
        }

        append_hop_spans(outcome.spans, *req_trace, root_id, exec_id,
                         exec_us);
    }
    return outcome;
}

void append_hop_spans(std::vector<trace::Span>& spans,
                      const RequestTrace& trace, std::uint64_t root_id,
                      std::uint64_t exec_id, std::uint64_t exec_us) {
    trace::Span queue;
    queue.name = "serve:queue-wait";
    queue.category = "serve";
    queue.id = trace::wire_span_id();
    queue.parent = root_id;
    queue.duration_us = trace.queue_wait_us;
    trace::Span exec;
    exec.name = "serve:execute";
    exec.category = "serve";
    exec.id = exec_id;
    exec.parent = root_id;
    exec.start_us = trace.queue_wait_us;
    exec.duration_us = exec_us;
    trace::Span root;
    root.name = "serve:request";
    root.category = "serve";
    root.id = root_id;
    root.parent = trace.parent_span;
    root.duration_us = trace.queue_wait_us + exec_us;
    spans.push_back(std::move(queue));
    spans.push_back(std::move(exec));
    spans.push_back(std::move(root));
}

std::uint32_t cache_hits(const CompileOutcome& outcome) {
    std::uint64_t total = 0;
    for (const char* tier :
         {"flow_cache.hits", "artifact_cache.hits", "profile_cache.hits",
          "profile_cache.disk_hits"}) {
        const auto it = outcome.counters.find(tier);
        if (it != outcome.counters.end()) total += it->second;
    }
    return static_cast<std::uint32_t>(total);
}

} // namespace psaflow::serve
