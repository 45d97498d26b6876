#include "serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "serve/service.hpp"
#include "serve/wire_trace.hpp"
#include "support/cas/cas.hpp"

namespace psaflow::serve {

namespace {
DaemonOptions normalized(DaemonOptions options) {
    if (options.workers < 1) options.workers = 1;
    return options;
}

/// A relative wire "out" that climbs above the output root it is joined
/// to. Absolute paths are the client's own choice and pass.
bool escapes_root(const std::string& out) {
    const std::filesystem::path path(out);
    if (path.is_absolute()) return false;
    const std::filesystem::path normal = path.lexically_normal();
    return !normal.empty() && *normal.begin() == "..";
}
} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(normalized(std::move(options))), session_(options_.session),
      flight_(options_.flight_capacity,
              static_cast<std::uint64_t>(options_.slo_ms) * 1000),
      queue_(options_.queue_depth == 0 ? 1 : options_.queue_depth,
             kPriorityLanes, static_cast<std::size_t>(options_.workers)) {}

Daemon::~Daemon() {
    // run() drains in order; this covers a daemon that was started but
    // whose run() never ran (tests, early exits).
    notify_shutdown();
    drain();
}

void Daemon::drain() {
    queue_.close(); // admitted jobs still run
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    front_.join_readers();
}

std::optional<std::string> Daemon::start() {
    if (auto error = front_.listen(options_.socket_path, options_.listen_tcp,
                                   options_.recv_timeout_ms))
        return error;

    started_ = std::chrono::steady_clock::now();
    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back(
            [this, i] { worker_loop(static_cast<std::size_t>(i)); });
    obs::info("serve", "daemon listening",
              {{"socket", options_.socket_path},
               {"tcp", options_.listen_tcp.empty()
                           ? std::string()
                           : "port " + std::to_string(tcp_port())},
               {"shard", options_.shard_name},
               {"workers", std::to_string(options_.workers)},
               {"queue_depth", std::to_string(options_.queue_depth)}});
    return std::nullopt;
}

void Daemon::run() {
    front_.run([this] {
        return [this](WireRequest& request, const json::Value&,
                      const std::string&) { return handle(request); };
    });
    drain(); // the front end stopped accepting; finish what was admitted
    obs::info("serve", "daemon drained",
              {{"completed", std::to_string(counters().completed)}});
}

std::string Daemon::handle(WireRequest& request) {
    const char* refusal = nullptr;
    if (request.type == RequestType::Sleep && !options_.enable_test_endpoints)
        refusal = "unknown request type 'sleep'";
    else if (request.type == RequestType::ClusterStats ||
             request.type == RequestType::ClusterMetrics ||
             request.type == RequestType::Drain)
        refusal = "cluster requests are answered by psaflow-router, not a "
                  "shard";
    else if (request.type == RequestType::Compile &&
             escapes_root(request.compile.out_dir))
        refusal = "\"out\" must not leave the output root";
    if (refusal != nullptr) {
        front_.count_bad_request();
        return json::dump(make_error_response(ErrorKind::BadRequest, refusal));
    }

    if (request.type != RequestType::Compile &&
        request.type != RequestType::Sleep)
        return handle_inline(request);

    // A queued job: resolve the output directory, arm the deadline at
    // receipt (queue wait counts against it), and admit or reject.
    auto job = std::make_shared<Job>();
    job->request = std::move(request);
    job->received = std::chrono::steady_clock::now();
    std::size_t lane = 0;
    std::uint64_t affinity = request_seq_.load();
    if (job->request.type == RequestType::Compile) {
        CompileRequest& compile = job->request.compile;
        if (compile.deadline_ms == 0)
            compile.deadline_ms = options_.default_deadline_ms;
        // Relative (or absent) "out" lands under the output root; an
        // absolute one replaces it (path::operator/).
        if (compile.out_dir.empty())
            compile.out_dir = compile.app + "-" +
                              std::to_string(request_seq_.fetch_add(1));
        compile.out_dir =
            (std::filesystem::path(options_.out_root) / compile.out_dir)
                .string();
        if (compile.deadline_ms > 0)
            job->token.set_deadline_after(
                std::chrono::milliseconds(compile.deadline_ms));
        lane = static_cast<std::size_t>(compile.priority);
        affinity = affinity_digest(compile);
    } else if (job->request.deadline_ms > 0) {
        job->token.set_deadline_after(
            std::chrono::milliseconds(job->request.deadline_ms));
    }

    std::future<std::string> done = job->response.get_future();
    if (!queue_.try_push(job, lane, affinity)) {
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.rejected_overload;
        }
        return json::dump(make_error_response(
            ErrorKind::Overloaded,
            queue_.closed() ? "daemon is draining" : "admission queue is full",
            retry_after_ms_hint()));
    }
    return done.get();
}

void Daemon::worker_loop(std::size_t worker_index) {
    while (true) {
        auto popped = queue_.pop(worker_index);
        if (!popped.has_value()) break; // queue closed and drained
        in_flight_.fetch_add(1);
        execute_job(*popped->item);
        in_flight_.fetch_sub(1);
    }
}

void Daemon::execute_job(Job& job) {
    const std::uint64_t queue_wait_us = us_since(job.received);

    // Per-request digest for the flight recorder; every exit from this
    // function records it (slow-request forensics must cover failures).
    obs::FlightRecord flight;
    flight.trace_id = job.request.trace.trace_id;
    flight.queue_wait_us = queue_wait_us;
    flight.set_shard(options_.shard_name);
    const auto finish_flight = [&](const char* status) {
        flight.set_status(status);
        flight.exec_us = us_since(job.received) - queue_wait_us;
        flight.total_us = us_since(job.received);
        flight_.record(flight);
    };

    // A job whose deadline expired while queued is answered without
    // running — the worker stays free for requests that can still make it.
    // A sleep is anchored at execution start, not receipt: it models
    // *service time* (a worker held for the full duration), so it occupies
    // a worker even when the queue is saturated. Deadlines still count
    // queue time — the token was armed at receipt.
    const bool sleep = job.request.type == RequestType::Sleep;
    bool expired = job.token.cancelled();
    if (sleep || expired) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(job.request.sleep_ms);
        while (sleep && !expired && std::chrono::steady_clock::now() < until &&
               !(expired = job.token.cancelled()))
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        {
            std::lock_guard lock(stats_mu_);
            ++(expired ? counters_.deadline_exceeded : counters_.completed);
            queue_wait_us_.record(queue_wait_us);
            request_latency_us_.record(us_since(job.received));
        }
        flight.set_app(sleep ? "sleep" : job.request.compile.app);
        finish_flight(expired ? "deadline_exceeded" : "ok");
        if (expired) {
            job.response.set_value(json::dump(make_error_response(
                ErrorKind::DeadlineExceeded,
                std::string("flow failed: ") + job.token.reason())));
            return;
        }
        json::Value ok = make_ok_response("sleep");
        ok.set("slept_ms", json::Value::number(double(job.request.sleep_ms)));
        if (job.request.trace.traced()) {
            // A traced sleep still reports its hop spans — tests use
            // sleeps as cheap stand-ins for real service time.
            RequestTrace hop;
            hop.parent_span = job.request.trace.parent_span;
            hop.queue_wait_us = queue_wait_us;
            std::vector<trace::Span> spans;
            append_hop_spans(spans, hop, trace::wire_span_id(),
                             trace::wire_span_id(),
                             us_since(job.received) - queue_wait_us);
            attach_response_trace(ok, job.request.trace.trace_id, spans);
        }
        job.response.set_value(json::dump(ok));
        return;
    }

    RequestTrace req_trace;
    req_trace.trace_id = job.request.trace.trace_id;
    req_trace.parent_span = job.request.trace.parent_span;
    req_trace.queue_wait_us = queue_wait_us;
    const CompileOutcome outcome =
        execute_request(session_, job.request.compile, &job.token,
                        /*merge_into=*/nullptr, &req_trace);
    {
        std::lock_guard lock(stats_mu_);
        queue_wait_us_.record(queue_wait_us);
        request_latency_us_.record(us_since(job.received));
        record_outcome(outcome);
    }

    flight.set_app(job.request.compile.app);
    flight.set_lane(to_string(job.request.compile.priority));
    flight.cache_hits = cache_hits(outcome);
    if (!outcome.decisions.empty() &&
        !outcome.decisions.front().selected.empty())
        flight.set_winner(outcome.decisions.front().selected.front());
    finish_flight(outcome.ok ? "ok" : to_string(outcome.error_kind));

    json::Value response =
        outcome.ok ? make_compile_response(job.request.compile, outcome)
                   : make_error_response(outcome.error_kind, outcome.error);
    if (job.request.trace.traced())
        attach_response_trace(response, job.request.trace.trace_id,
                              outcome.spans);
    job.response.set_value(json::dump(response));
}

/// Caller holds stats_mu_.
void Daemon::record_outcome(const CompileOutcome& outcome) {
    if (outcome.ok) {
        ++counters_.completed;
    } else if (outcome.error_kind == ErrorKind::DeadlineExceeded) {
        ++counters_.deadline_exceeded;
    } else if (outcome.error_kind == ErrorKind::BadRequest) {
        ++counters_.bad_requests;
    } else {
        ++counters_.failed;
    }
    for (const auto& [name, value] : outcome.counters)
        flow_counters_[name] += value;
    // Per-request decision provenance feeds the stats plane as a plain
    // counter: how many branch-point deliberations the flows made.
    flow_counters_["flow.decisions"] +=
        static_cast<std::uint64_t>(outcome.decisions.size());
    for (const trace::Span& span : outcome.spans)
        if (span.category == "task")
            task_latency_us_[span.name].record(span.duration_us);
}

std::string Daemon::handle_inline(const WireRequest& request) {
    if (request.type == RequestType::Stats)
        return json::dump(stats_json());
    if (request.type == RequestType::Metrics)
        return json::dump(make_metrics_response("metrics", metrics_text()));
    if (request.type == RequestType::Logs)
        return json::dump(
            make_logs_response(request.logs_max, request.logs_min_level));
    if (request.type == RequestType::CasGet) {
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.cas_gets;
        }
        const auto started = std::chrono::steady_clock::now();
        cas::CasStore* store = session_.store();
        // get_local: serving a peer's fetch must never recurse into this
        // daemon's own remote tier (see protocol.hpp).
        std::optional<std::string> payload;
        if (store != nullptr) payload = store->get_local(request.cas_key);
        json::Value response = make_cas_get_response(payload);
        if (request.trace.traced()) {
            trace::Span span;
            span.name = "serve:cas_get";
            span.category = "serve";
            span.id = trace::wire_span_id();
            span.parent = request.trace.parent_span;
            span.duration_us = us_since(started);
            span.work_units =
                payload.has_value()
                    ? static_cast<double>(payload->size())
                    : 0.0;
            attach_response_trace(response, request.trace.trace_id,
                                  {span});
        }
        return json::dump(response);
    }
    if (request.type == RequestType::Flight)
        return json::dump(
            make_flight_response(flight_, request.flight_max));
    if (request.type == RequestType::CasPut) {
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.cas_puts;
        }
        cas::CasStore* store = session_.store();
        if (store != nullptr)
            store->put_local(request.cas_key, request.cas_payload);
        return json::dump(make_cas_put_response(store != nullptr));
    }
    return json::dump(make_pong_response());
}

long long Daemon::retry_after_ms_hint() {
    std::uint64_t p50_us;
    {
        std::lock_guard lock(stats_mu_);
        p50_us = request_latency_us_.percentile(50);
    }
    return std::clamp(static_cast<long long>(p50_us / 1000), 50LL, 5000LL);
}

json::Value Daemon::stats_json() {
    json::Value stats = make_ok_response("stats");
    stats.set("uptime_us", json::Value::number(double(us_since(started_))));
    if (!options_.shard_name.empty())
        stats.set("shard", json::Value::string(options_.shard_name));
    stats.set("workers", json::Value::number(double(options_.workers)));
    stats.set("queue_capacity",
              json::Value::number(double(queue_.capacity())));
    stats.set("queue_depth", json::Value::number(double(queue_.depth())));
    json::Value lane_depths = json::Value::array();
    for (std::size_t lane = 0; lane < queue_.lanes(); ++lane)
        lane_depths.push(json::Value::number(double(queue_.lane_depth(lane))));
    stats.set("queue_lane_depths", std::move(lane_depths));
    stats.set("queue_steals", json::Value::number(double(queue_.steals())));
    stats.set("in_flight", json::Value::number(double(in_flight_.load())));
    stats.set("draining", json::Value::boolean(front_.draining()));

    const DaemonCounters counters = this->counters();
    std::lock_guard lock(stats_mu_);
    json::Value requests = json::Value::object();
    requests.set("received", json::Value::number(double(counters.requests)));
    requests.set("pings", json::Value::number(double(counters.pings)));
    requests.set("completed",
                 json::Value::number(double(counters.completed)));
    requests.set("failed", json::Value::number(double(counters.failed)));
    requests.set("bad_request",
                 json::Value::number(double(counters.bad_requests)));
    requests.set("rejected_overload",
                 json::Value::number(double(counters.rejected_overload)));
    requests.set("deadline_exceeded",
                 json::Value::number(double(counters.deadline_exceeded)));
    requests.set("cas_gets", json::Value::number(double(counters.cas_gets)));
    requests.set("cas_puts", json::Value::number(double(counters.cas_puts)));
    stats.set("requests", std::move(requests));
    stats.set("connections",
              json::Value::number(double(counters.connections)));

    stats.set("request_latency_us", request_latency_us_.to_json());
    stats.set("queue_wait_us", queue_wait_us_.to_json());

    json::Value tasks = json::Value::object();
    for (const auto& [name, hist] : task_latency_us_)
        tasks.set(name, hist.to_json());
    stats.set("task_latency_us", std::move(tasks));

    json::Value flow_counters = json::Value::object();
    for (const auto& [name, value] : flow_counters_)
        flow_counters.set(name, json::Value::number(double(value)));
    stats.set("counters", std::move(flow_counters));

    stats.set("cache", cache_hit_rates(flow_counters_));
    return stats;
}

std::string Daemon::metrics_text() {
    obs::PrometheusRenderer renderer;
    if (!options_.shard_name.empty())
        renderer.set_default_labels({{"shard", options_.shard_name}});
    renderer.gauge("psaflowd_uptime_seconds", "Seconds since daemon start",
                   double(us_since(started_)) / 1e6);
    renderer.gauge("psaflowd_workers", "Configured worker threads",
                   double(options_.workers));
    renderer.gauge("psaflowd_queue_depth", "Jobs waiting for a worker",
                   double(queue_.depth()));
    for (std::size_t lane = 0; lane < queue_.lanes(); ++lane)
        renderer.gauge("psaflowd_queue_lane_depth",
                       "Jobs waiting, by priority lane",
                       double(queue_.lane_depth(lane)),
                       {{"lane", std::to_string(lane)}});
    renderer.counter("psaflowd_queue_steals_total",
                     "Jobs taken from a sibling worker's sub-queue",
                     double(queue_.steals()));
    renderer.gauge("psaflowd_queue_capacity", "Admission queue capacity",
                   double(queue_.capacity()));
    renderer.gauge("psaflowd_in_flight", "Jobs currently executing",
                   double(in_flight_.load()));
    renderer.gauge("psaflowd_draining", "1 while shutting down",
                   front_.draining() ? 1.0 : 0.0);

    const DaemonCounters counters = this->counters();
    std::lock_guard lock(stats_mu_);
    const auto tally = [&](const char* label, std::uint64_t value) {
        renderer.counter("psaflowd_requests_total",
                         "Requests by outcome", double(value),
                         {{"outcome", label}});
    };
    tally("completed", counters.completed);
    tally("failed", counters.failed);
    tally("bad_request", counters.bad_requests);
    tally("rejected_overload", counters.rejected_overload);
    tally("deadline_exceeded", counters.deadline_exceeded);
    renderer.counter("psaflowd_requests_received_total",
                     "Request frames received, pings excluded",
                     double(counters.requests));
    renderer.counter("psaflowd_pings_received_total",
                     "Ping frames received", double(counters.pings));
    renderer.counter("psaflowd_connections_total", "Connections accepted",
                     double(counters.connections));
    renderer.counter("psaflowd_cas_gets_total",
                     "Remote-CAS reads served to peers",
                     double(counters.cas_gets));
    renderer.counter("psaflowd_cas_puts_total",
                     "Remote-CAS writes accepted from peers",
                     double(counters.cas_puts));

    renderer.histogram("psaflowd_request_latency_us",
                       "Receipt-to-response latency, microseconds",
                       request_latency_us_);
    renderer.histogram("psaflowd_queue_wait_us",
                       "Admission-to-execution wait, microseconds",
                       queue_wait_us_);
    for (const auto& [name, hist] : task_latency_us_)
        renderer.histogram("psaflowd_task_latency_us",
                           "Flow-task wall time, microseconds", hist,
                           {{"task", name}});

    for (const auto& [name, value] : flow_counters_)
        renderer.counter(obs::sanitize_metric_name(name, "psaflow_"),
                         "psaflow trace counter " + name, double(value));
    return renderer.text();
}

DaemonCounters Daemon::counters() const {
    std::lock_guard lock(stats_mu_);
    DaemonCounters counters = counters_;
    counters.connections = front_.connections();
    counters.requests = front_.requests();
    counters.pings = front_.pings();
    counters.bad_requests += front_.bad_requests();
    return counters;
}

} // namespace psaflow::serve
