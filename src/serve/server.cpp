#include "serve/server.hpp"

#include <fcntl.h>
#include <unistd.h>

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
} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(normalized(std::move(options))),
      queue_(options_.queue_depth == 0 ? 1 : options_.queue_depth,
             kPriorityLanes, static_cast<std::size_t>(options_.workers)) {}

Daemon::~Daemon() {
    notify_shutdown();
    // run() performs the orderly drain; this is the fallback for a daemon
    // that was started but whose run() never ran (tests, early exits).
    queue_.close();
    for (std::thread& worker : workers_)
        if (worker.joinable()) worker.join();
    readers_.join_all();
}

std::optional<std::string> Daemon::start() {
    if (!options_.cache_dir.empty())
        cas::configure(options_.cache_dir, options_.cache_max_bytes);
    if (options_.slo_ms > 0)
        obs::FlightRecorder::global().set_slo_us(
            static_cast<std::uint64_t>(options_.slo_ms) * 1000);

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) return "cannot create self-pipe";
    wake_read_.reset(pipe_fds[0]);
    wake_write_.reset(pipe_fds[1]);
    ::fcntl(wake_write_.get(), F_SETFL, O_NONBLOCK);

    if (options_.socket_path.empty() && options_.listen_tcp.empty())
        return "no listener configured (need a socket path or --listen)";

    std::string error;
    if (!options_.socket_path.empty()) {
        listen_fd_ = net::listen_unix(options_.socket_path, /*backlog=*/64,
                                      &error);
        if (!listen_fd_.valid()) return error;
    }
    if (!options_.listen_tcp.empty()) {
        auto endpoint = net::parse_endpoint(options_.listen_tcp, &error);
        if (!endpoint.has_value()) return error;
        if (endpoint->kind != net::Endpoint::Kind::Tcp)
            return "--listen expects host:port, got '" + options_.listen_tcp +
                   "'";
        tcp_listen_fd_ = net::listen_tcp(endpoint->host, endpoint->port,
                                         /*backlog=*/64, &error);
        if (!tcp_listen_fd_.valid()) return error;
        tcp_port_ = net::local_port(tcp_listen_fd_.get());
    }

    started_ = std::chrono::steady_clock::now();
    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back(
            [this, i] { worker_loop(static_cast<std::size_t>(i)); });
    obs::info("serve", "daemon listening",
              {{"socket", options_.socket_path},
               {"tcp", options_.listen_tcp.empty()
                           ? std::string()
                           : "port " + std::to_string(tcp_port_)},
               {"shard", options_.shard_name},
               {"workers", std::to_string(options_.workers)},
               {"queue_depth", std::to_string(options_.queue_depth)}});
    return std::nullopt;
}

void Daemon::run() {
    while (true) {
        const int ready = net::wait_readable_any(
            {listen_fd_.get(), tcp_listen_fd_.get(), wake_read_.get()}, -1);
        const bool is_listener =
            (listen_fd_.valid() && ready == listen_fd_.get()) ||
            (tcp_listen_fd_.valid() && ready == tcp_listen_fd_.get());
        if (!is_listener) break; // shutdown wake (or poll failure)
        net::Fd conn = net::accept_connection(ready);
        if (!conn.valid()) continue;
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.connections;
        }
        readers_.spawn([this, fd = std::move(conn)]() mutable {
            serve_connection(std::move(fd));
        });
    }

    // Drain: stop accepting, finish everything admitted, then leave no
    // trace on disk — the smoke test asserts the socket file is gone.
    shutting_down_.store(true);
    listen_fd_.reset();
    tcp_listen_fd_.reset();
    std::error_code ec;
    if (!options_.socket_path.empty())
        std::filesystem::remove(options_.socket_path, ec);
    queue_.close();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    readers_.join_all();
    obs::info("serve", "daemon drained",
              {{"completed", std::to_string(counters().completed)}});
}

void Daemon::notify_shutdown() noexcept {
    shutting_down_.store(true);
    if (wake_write_.valid()) {
        const char byte = 'q';
        [[maybe_unused]] ssize_t rc = ::write(wake_write_.get(), &byte, 1);
    }
}

void Daemon::serve_connection(net::Fd conn) {
    net::set_recv_timeout(conn.get(), options_.recv_timeout_ms);
    while (!shutting_down_.load()) {
        const int ready =
            net::wait_readable(conn.get(), wake_read_.get(), -1);
        if (ready != conn.get()) break; // shutdown wake or poll failure

        std::string payload;
        const net::FrameStatus status = net::read_frame(conn.get(), payload);
        if (status == net::FrameStatus::Eof ||
            status == net::FrameStatus::Error)
            break;
        if (status != net::FrameStatus::Ok) {
            // Torn/oversized frames get a structured complaint; the stream
            // is unsynchronised afterwards, so the connection closes.
            obs::warn("serve", "malformed frame, closing connection",
                      {{"status", net::to_string(status)}});
            const json::Value response = make_error_response(
                ErrorKind::BadRequest,
                std::string("malformed frame: ") + net::to_string(status));
            (void)net::write_frame(conn.get(), json::dump(response));
            break;
        }

        std::string parse_error;
        const auto doc = json::parse(payload, &parse_error);
        std::string response;
        if (!doc.has_value()) {
            {
                std::lock_guard lock(stats_mu_);
                ++counters_.requests;
                ++counters_.bad_requests;
            }
            response = json::dump(make_error_response(
                ErrorKind::BadRequest, "invalid JSON: " + parse_error));
            if (!net::write_frame(conn.get(), response)) break;
            continue;
        }

        WireRequest request;
        auto request_error = parse_wire_request(*doc, request);
        if (!request_error.has_value() &&
            request.type == RequestType::Sleep &&
            !options_.enable_test_endpoints)
            request_error = "unknown request type 'sleep'";
        if (!request_error.has_value() &&
            (request.type == RequestType::ClusterStats ||
             request.type == RequestType::ClusterMetrics ||
             request.type == RequestType::Drain))
            request_error = "cluster requests are answered by "
                            "psaflow-router, not a shard";
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.requests;
            if (request_error.has_value()) ++counters_.bad_requests;
        }
        if (request_error.has_value()) {
            response = json::dump(make_error_response(ErrorKind::BadRequest,
                                                      *request_error));
            if (!net::write_frame(conn.get(), response)) break;
            continue;
        }

        if (request.type == RequestType::Ping ||
            request.type == RequestType::Stats ||
            request.type == RequestType::Metrics ||
            request.type == RequestType::Logs ||
            request.type == RequestType::CasGet ||
            request.type == RequestType::CasPut ||
            request.type == RequestType::Flight) {
            response = handle_inline(request);
            if (!net::write_frame(conn.get(), response)) break;
            continue;
        }

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
            if (compile.out_dir.empty())
                compile.out_dir =
                    (std::filesystem::path(options_.out_root) /
                     (compile.app + "-" +
                      std::to_string(request_seq_.fetch_add(1))))
                        .string();
            else if (!std::filesystem::path(compile.out_dir).is_absolute())
                compile.out_dir = (std::filesystem::path(options_.out_root) /
                                   compile.out_dir)
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
            response = json::dump(make_error_response(
                ErrorKind::Overloaded,
                queue_.closed() ? "daemon is draining"
                                : "admission queue is full",
                retry_after_ms_hint()));
            if (!net::write_frame(conn.get(), response)) break;
            continue;
        }
        response = done.get();
        if (!net::write_frame(conn.get(), response)) break;
    }
}

void Daemon::worker_loop(std::size_t worker_index) {
    flow::SessionOptions session_options;
    session_options.jobs = options_.session_jobs;
    flow::FlowSession session(session_options);
    while (true) {
        auto popped = queue_.pop(worker_index);
        if (!popped.has_value()) break; // queue closed and drained
        in_flight_.fetch_add(1);
        execute_job(session, *popped->item);
        in_flight_.fetch_sub(1);
    }
}

void Daemon::execute_job(flow::FlowSession& session, Job& job) {
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
        obs::FlightRecorder::global().record(flight);
    };

    // A job whose deadline expired while queued is answered without
    // running — the worker stays free for requests that can still make it.
    if (job.token.cancelled()) {
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.deadline_exceeded;
            queue_wait_us_.record(queue_wait_us);
            request_latency_us_.record(us_since(job.received));
        }
        flight.set_app(job.request.type == RequestType::Compile
                           ? job.request.compile.app
                           : "sleep");
        finish_flight("deadline_exceeded");
        job.response.set_value(json::dump(make_error_response(
            ErrorKind::DeadlineExceeded,
            std::string("flow failed: ") + job.token.reason())));
        return;
    }

    if (job.request.type == RequestType::Sleep) {
        // Anchored at execution start, not receipt: the sleep models
        // *service time* (a worker held for the full duration), so it
        // occupies a worker even when the queue is saturated. Deadlines
        // still count queue time — the token was armed at receipt.
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(job.request.sleep_ms);
        bool cancelled = false;
        while (std::chrono::steady_clock::now() < until) {
            if (job.token.cancelled()) {
                cancelled = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        {
            std::lock_guard lock(stats_mu_);
            queue_wait_us_.record(queue_wait_us);
            request_latency_us_.record(us_since(job.received));
            if (cancelled)
                ++counters_.deadline_exceeded;
            else
                ++counters_.completed;
        }
        flight.set_app("sleep");
        finish_flight(cancelled ? "deadline_exceeded" : "ok");
        if (cancelled) {
            job.response.set_value(json::dump(make_error_response(
                ErrorKind::DeadlineExceeded,
                std::string("flow failed: ") + job.token.reason())));
        } else {
            json::Value ok = json::Value::object();
            ok.set("ok", json::Value::boolean(true));
            ok.set("schema_version",
                   json::Value::number(double(kSchemaVersion)));
            ok.set("type", json::Value::string("sleep"));
            ok.set("slept_ms",
                   json::Value::number(double(job.request.sleep_ms)));
            if (job.request.trace.traced()) {
                // A traced sleep still reports its hop spans — tests use
                // sleeps as cheap stand-ins for real service time.
                const std::uint64_t slept_us =
                    us_since(job.received) - queue_wait_us;
                std::vector<trace::Span> spans;
                trace::Span root;
                root.name = "serve:request";
                root.category = "serve";
                root.id = trace::wire_span_id();
                root.parent = job.request.trace.parent_span;
                root.duration_us = queue_wait_us + slept_us;
                trace::Span queue;
                queue.name = "serve:queue-wait";
                queue.category = "serve";
                queue.id = trace::wire_span_id();
                queue.parent = root.id;
                queue.duration_us = queue_wait_us;
                trace::Span exec;
                exec.name = "serve:execute";
                exec.category = "serve";
                exec.id = trace::wire_span_id();
                exec.parent = root.id;
                exec.start_us = queue_wait_us;
                exec.duration_us = slept_us;
                spans.push_back(std::move(queue));
                spans.push_back(std::move(exec));
                spans.push_back(std::move(root));
                attach_response_trace(ok, job.request.trace.trace_id,
                                      spans);
            }
            job.response.set_value(json::dump(ok));
        }
        return;
    }

    RequestTrace req_trace;
    req_trace.trace_id = job.request.trace.trace_id;
    req_trace.parent_span = job.request.trace.parent_span;
    req_trace.queue_wait_us = queue_wait_us;
    const CompileOutcome outcome =
        execute_request(session, job.request.compile, &job.token,
                        /*merge_into=*/nullptr, &req_trace);
    {
        std::lock_guard lock(stats_mu_);
        queue_wait_us_.record(queue_wait_us);
        request_latency_us_.record(us_since(job.received));
        record_outcome(outcome, queue_wait_us);
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
void Daemon::record_outcome(const CompileOutcome& outcome,
                            std::uint64_t /*queue_wait_us*/) {
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
            logs_json(request.logs_max, request.logs_min_level));
    if (request.type == RequestType::CasGet) {
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.cas_gets;
        }
        const auto started = std::chrono::steady_clock::now();
        cas::CasStore* store = cas::store();
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
        return json::dump(make_flight_response(
            obs::FlightRecorder::global(), request.flight_max));
    if (request.type == RequestType::CasPut) {
        {
            std::lock_guard lock(stats_mu_);
            ++counters_.cas_puts;
        }
        cas::CasStore* store = cas::store();
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
    long long hint = static_cast<long long>(p50_us / 1000);
    if (hint < 50) hint = 50;
    if (hint > 5000) hint = 5000;
    return hint;
}

json::Value Daemon::stats_json() {
    json::Value stats = json::Value::object();
    stats.set("ok", json::Value::boolean(true));
    stats.set("schema_version",
              json::Value::number(double(kSchemaVersion)));
    stats.set("type", json::Value::string("stats"));
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
    stats.set("draining", json::Value::boolean(shutting_down_.load()));

    std::lock_guard lock(stats_mu_);
    json::Value requests = json::Value::object();
    requests.set("received", json::Value::number(double(counters_.requests)));
    requests.set("completed",
                 json::Value::number(double(counters_.completed)));
    requests.set("failed", json::Value::number(double(counters_.failed)));
    requests.set("bad_request",
                 json::Value::number(double(counters_.bad_requests)));
    requests.set("rejected_overload",
                 json::Value::number(double(counters_.rejected_overload)));
    requests.set("deadline_exceeded",
                 json::Value::number(double(counters_.deadline_exceeded)));
    requests.set("cas_gets", json::Value::number(double(counters_.cas_gets)));
    requests.set("cas_puts", json::Value::number(double(counters_.cas_puts)));
    stats.set("requests", std::move(requests));
    stats.set("connections",
              json::Value::number(double(counters_.connections)));

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

    const auto counter = [this](const char* name) {
        auto it = flow_counters_.find(name);
        return it == flow_counters_.end() ? std::uint64_t{0} : it->second;
    };
    json::Value cache = json::Value::object();
    cache.set("cas_hit_rate",
              json::Value::number(
                  hit_rate(counter("cas.hits"), counter("cas.misses"))));
    cache.set("profile_cache_hit_rate",
              json::Value::number(hit_rate(counter("profile_cache.hits"),
                                           counter("profile_cache.misses"))));
    cache.set("remote_cas_hit_rate",
              json::Value::number(hit_rate(counter("cas.remote_hits"),
                                           counter("cas.remote_misses"))));
    stats.set("cache", std::move(cache));
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
                   shutting_down_.load() ? 1.0 : 0.0);

    std::lock_guard lock(stats_mu_);
    const auto tally = [&](const char* label, std::uint64_t value) {
        renderer.counter("psaflowd_requests_total",
                         "Requests by outcome", double(value),
                         {{"outcome", label}});
    };
    tally("completed", counters_.completed);
    tally("failed", counters_.failed);
    tally("bad_request", counters_.bad_requests);
    tally("rejected_overload", counters_.rejected_overload);
    tally("deadline_exceeded", counters_.deadline_exceeded);
    renderer.counter("psaflowd_requests_received_total",
                     "Request frames received", double(counters_.requests));
    renderer.counter("psaflowd_connections_total", "Connections accepted",
                     double(counters_.connections));
    renderer.counter("psaflowd_cas_gets_total",
                     "Remote-CAS reads served to peers",
                     double(counters_.cas_gets));
    renderer.counter("psaflowd_cas_puts_total",
                     "Remote-CAS writes accepted from peers",
                     double(counters_.cas_puts));

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

json::Value Daemon::logs_json(long long max_records,
                              const std::string& min_level) {
    obs::LogLevel level = obs::LogLevel::Trace;
    if (!min_level.empty())
        if (auto parsed = obs::parse_log_level(min_level)) level = *parsed;

    const obs::Logger& logger = obs::Logger::global();
    const auto records = logger.recent(
        max_records < 0 ? 0 : static_cast<std::size_t>(max_records), level);

    json::Value response = json::Value::object();
    response.set("ok", json::Value::boolean(true));
    response.set("schema_version",
                 json::Value::number(double(kSchemaVersion)));
    response.set("type", json::Value::string("logs"));
    response.set("total", json::Value::number(double(logger.total())));
    response.set("dropped", json::Value::number(double(logger.dropped())));
    json::Value out = json::Value::array();
    for (const obs::LogRecord& record : records) {
        json::Value entry = json::Value::object();
        entry.set("seq", json::Value::number(double(record.seq)));
        entry.set("wall_ms", json::Value::number(double(record.wall_ms)));
        entry.set("level",
                  json::Value::string(obs::to_string(record.level)));
        entry.set("component", json::Value::string(record.component));
        entry.set("message", json::Value::string(record.message));
        if (!record.fields.empty()) {
            json::Value fields = json::Value::object();
            for (const auto& [key, value] : record.fields)
                fields.set(key, json::Value::string(value));
            entry.set("fields", std::move(fields));
        }
        entry.set("line", json::Value::string(record.to_line()));
        out.push(std::move(entry));
    }
    response.set("records", std::move(out));
    return response;
}

DaemonCounters Daemon::counters() const {
    std::lock_guard lock(stats_mu_);
    return counters_;
}

} // namespace psaflow::serve
