// The request executor shared by every entry point.
//
// `execute_request` is the single code path that turns a CompileRequest
// into designs on disk: the daemon's warm workers, `psaflowc --batch` and
// the single-app CLI all call it, so a request behaves identically however
// it arrives (satellite: the batch driver and the daemon cannot drift).
//
// Each call runs under a private trace::Registry installed as the calling
// thread's sink, so the outcome carries exactly this request's counters and
// task spans — concurrent requests in one daemon process cannot bleed
// metrics into each other. A non-null `merge_into` then receives the
// private registry: psaflowc passes trace::Registry::global() so its
// `--trace-out` and `--metrics-out` totals accumulate over the run. The
// daemon passes null: its `stats` and `metrics` read the outcome's
// counters, and a process-wide registry would only grow with its age.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/session.hpp"
#include "obs/decision.hpp"
#include "serve/request.hpp"
#include "support/cancel.hpp"
#include "support/trace.hpp"

namespace psaflow::serve {

/// One generated design, as reported back to the client.
struct DesignRow {
    std::string name;
    std::string target;
    std::string device;
    bool synthesizable = false;
    double hotspot_seconds = 0.0;
    double speedup = 0.0;
    double loc_delta = 0.0;
    std::string filename;
};

struct CompileOutcome {
    bool ok = false;
    ErrorKind error_kind = ErrorKind::None;
    std::string error;

    std::size_t design_count = 0;
    double best_speedup = 0.0;
    double reference_seconds = 0.0;
    std::string summary_path;
    std::vector<DesignRow> designs;

    std::uint64_t wall_us = 0; ///< execute_request wall clock
    /// This request's counters and task spans only (see header comment).
    std::map<std::string, std::uint64_t> counters;
    std::vector<trace::Span> spans;
    /// Branch-point provenance of the flow (FlowResult::decisions).
    std::vector<obs::DecisionRecord> decisions;
};

/// Distributed-trace coordinates for a request that arrived over the
/// wire (serve/wire_trace.hpp). When present (trace_id != 0),
/// execute_request adopts the trace: the request's task spans parent
/// under a synthetic `serve:execute` span, and outcome.spans gains the
/// hop spans `serve:request` (rooted on the remote parent_span, covering
/// queue wait + execution) with `serve:queue-wait` / `serve:execute`
/// children — based at t=0, ready for attach_response_trace. The
/// synthetic hop spans stay out of `merge_into` (they describe the wire
/// hop, not this process's work).
struct RequestTrace {
    std::uint64_t trace_id = 0;      ///< 0 = untraced
    std::uint64_t parent_span = 0;   ///< requester's span to root under
    std::uint64_t queue_wait_us = 0; ///< admission-queue wait to account
};

/// Append a traced request's hop spans to `spans`: `serve:queue-wait`,
/// `serve:execute` (id `exec_id`, after the queue wait, lasting
/// `exec_us`) and their parent `serve:request` (id `root_id`, rooted on
/// `trace.parent_span`), based at t=0.
void append_hop_spans(std::vector<trace::Span>& spans,
                      const RequestTrace& trace, std::uint64_t root_id,
                      std::uint64_t exec_id, std::uint64_t exec_us);

/// Compile `req` through `session`, write the design sources and the
/// summary CSV under `req.out_dir`, and classify any failure.
///
/// `cancel` (nullable, not owned) is threaded through the flow; a fired
/// token surfaces as ErrorKind::DeadlineExceeded. When `cancel` is null
/// and `req.deadline_ms > 0`, a token is armed here — entry points that
/// queue requests (the daemon) instead arm their own token at *receipt*
/// so queue wait counts against the deadline.
///
/// Never throws: all failures land in the outcome, so one bad request
/// cannot take down a worker (per-request failure isolation).
[[nodiscard]] CompileOutcome
execute_request(flow::FlowSession& session, const CompileRequest& req,
                const CancelToken* cancel, trace::Registry* merge_into,
                const RequestTrace* req_trace = nullptr);

/// Cache-tier hits charged to one request, for its flight record: flow
/// results, design artifacts and interpreter profiles (memory or disk)
/// served instead of computed. A flow-result hit counts once, whether the
/// local store or the remote tier answered it.
[[nodiscard]] std::uint32_t cache_hits(const CompileOutcome& outcome);

} // namespace psaflow::serve
