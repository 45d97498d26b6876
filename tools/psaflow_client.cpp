// psaflow-client — thin client for the psaflowd compile service.
//
//   psaflow-client --socket /tmp/psaflow.sock --app nbody --out designs/n
//   psaflow-client --socket /tmp/psaflow.sock --app kmeans --deadline-ms 500
//   psaflow-client --socket /tmp/psaflow.sock --app nbody --flow my.json
//       # ships the manifest inside the request: the daemon runs the
//       # user-programmed flow in place of the builtin standard flow
//   psaflow-client --socket /tmp/psaflow.sock --stats            # table
//   psaflow-client --socket /tmp/psaflow.sock --stats --json     # raw doc
//   psaflow-client --socket /tmp/psaflow.sock --metrics          # Prometheus
//   psaflow-client --socket /tmp/psaflow.sock --logs --log-level warn
//   psaflow-client --socket /tmp/psaflow.sock --ping
//
// Against a psaflow-router the cluster views fan in over every shard:
//
//   psaflow-client --socket 127.0.0.1:7400 --cluster-stats --json
//   psaflow-client --socket 127.0.0.1:7400 --cluster-metrics
//   psaflow-client --socket 127.0.0.1:7400 --flight --flight-max 20
//
// Any request can be distributed-traced: --trace-out mints a trace id,
// ships it with the request (W3C-traceparent-style: trace_id + parent
// span), and writes the assembled cross-process span tree — client root,
// router relay, shard queue/execute, remote-CAS hops — to a file:
//
//   psaflow-client --socket 127.0.0.1:7400 --app nbody
//       --trace-out flame.json --trace-format chrome
//
// Exit codes mirror the wire error taxonomy so shell harnesses can branch
// on failure class without parsing JSON:
//   0  success
//   1  internal failure (flow failed, connection/protocol trouble)
//   2  usage error or bad_request
//   3  overloaded (after exhausting --retry attempts)
//   4  deadline_exceeded
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "cluster/retry.hpp"
#include "flow/manifest.hpp"
#include "obs/chrome_trace.hpp"
#include "serve/format.hpp"
#include "serve/protocol.hpp"
#include "serve/wire_trace.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/net.hpp"
#include "support/prng.hpp"
#include "support/string_util.hpp"
#include "support/trace.hpp"

using namespace psaflow;

namespace {

/// One request/response round-trip on a fresh connection. Returns false on
/// transport failure (message on stderr).
bool round_trip(const net::Endpoint& endpoint, const json::Value& request,
                json::Value& response) {
    std::string error;
    std::string payload;
    const net::FrameStatus status = net::round_trip(
        endpoint, json::dump(request), /*recv_timeout_ms=*/0, payload, &error);
    if (status != net::FrameStatus::Ok) {
        if (!error.empty())
            std::cerr << "psaflow-client: " << error << "\n";
        else
            std::cerr << "psaflow-client: " << net::to_string(status)
                      << " while reading response\n";
        return false;
    }
    std::string parse_error;
    auto doc = json::parse(payload, &parse_error);
    if (!doc.has_value()) {
        std::cerr << "psaflow-client: malformed response: " << parse_error
                  << "\n";
        return false;
    }
    response = std::move(*doc);
    return true;
}

int exit_code_for(serve::ErrorKind kind) {
    switch (kind) {
    case serve::ErrorKind::None: return 0;
    case serve::ErrorKind::BadRequest: return 2;
    case serve::ErrorKind::Overloaded: return 3;
    case serve::ErrorKind::DeadlineExceeded: return 4;
    case serve::ErrorKind::Internal: return 1;
    }
    return 1;
}

bool write_text_file(const std::string& path, const std::string& content) {
    std::ofstream file(path);
    if (!file) {
        std::cerr << "psaflow-client: cannot write " << path << "\n";
        return false;
    }
    file << content;
    return true;
}

bool member_flag(const json::Value& obj, const char* key) {
    const json::Value* v = obj.find(key);
    return v != nullptr && v->bool_or(false);
}

double member_num(const json::Value& obj, const char* key) {
    const json::Value* v = obj.find(key);
    return v == nullptr ? 0.0 : v->number_or(0.0);
}

std::string member_str(const json::Value& obj, const char* key) {
    const json::Value* v = obj.find(key);
    return v == nullptr ? std::string() : v->string_or("");
}

/// Human summary of a cluster_stats fan-in document.
void print_cluster_stats(const json::Value& response) {
    std::cout << "shards: " << member_num(response, "shards_live") << "/"
              << member_num(response, "shards_total") << " live\n";
    if (const json::Value* shards = response.find("shards");
        shards != nullptr && shards->is_array())
        for (const json::Value& shard : shards->elements)
            std::cout << "  " << member_str(shard, "name") << " ("
                      << member_str(shard, "endpoint") << "): "
                      << (member_flag(shard, "healthy") ? "healthy"
                                                        : "unhealthy")
                      << (member_flag(shard, "draining") ? ", draining" : "")
                      << (member_flag(shard, "reachable") ? ""
                                                          : ", unreachable")
                      << "\n";
    const json::Value* fleet = response.find("fleet");
    if (fleet == nullptr) return;
    std::cout << "fleet: " << member_num(*fleet, "completed")
              << " completed, "
              << format_compact(member_num(*fleet, "aggregate_qps"), 4)
              << " qps, " << member_num(*fleet, "in_flight")
              << " in flight, queue depth "
              << member_num(*fleet, "queue_depth") << "\n";
    if (const json::Value* latency = fleet->find("request_latency_us");
        latency != nullptr)
        std::cout << "latency p50/p90/p99 us: "
                  << member_num(*latency, "p50") << "/"
                  << member_num(*latency, "p90") << "/"
                  << member_num(*latency, "p99") << "\n";
}

/// Human summary of a flight-recorder dump.
void print_flight(const json::Value& response) {
    std::cout << "flight recorder: " << member_num(response, "total")
              << " recorded, " << member_num(response, "slo_breaches")
              << " SLO breach(es), capacity "
              << member_num(response, "capacity") << "\n";
    const json::Value* records = response.find("records");
    if (records == nullptr || !records->is_array()) return;
    for (const json::Value& record : records->elements)
        std::cout << "  #" << member_num(record, "seq") << " "
                  << member_str(record, "app") << " ["
                  << member_str(record, "lane")
                  << "] shard=" << member_str(record, "shard")
                  << " status=" << member_str(record, "status")
                  << " total=" << member_num(record, "total_us")
                  << "us (queue " << member_num(record, "queue_wait_us")
                  << "us, exec " << member_num(record, "exec_us") << "us)"
                  << (member_flag(record, "slo_breach") ? " SLO-BREACH" : "")
                  << (member_str(record, "trace_id").empty()
                          ? std::string()
                          : " trace=" + member_str(record, "trace_id"))
                  << "\n";
}

} // namespace

int main(int argc, char** argv) {
    (void)cli::load_environment(); // the trace and log sinks' variables
    std::string socket_path;
    std::string app;
    std::string mode = "informed";
    std::string out_dir;
    std::string flow_file;
    double budget = -1.0;
    double threshold_x = 4.0;
    long long deadline_ms = 0;
    long long sleep_ms = -1;
    long long retries = 0;
    long long retry_budget_ms = 30000;
    long long retry_seed = 0;
    long long log_max = 100;
    std::string log_level;
    bool stats = false;
    bool metrics = false;
    bool logs = false;
    bool ping = false;
    bool raw_json = false;
    bool cluster_stats = false;
    bool cluster_metrics = false;
    bool flight = false;
    long long flight_max = 0;
    std::string trace_out;
    std::string trace_format = "json";

    cli::OptionParser parser(
        argv[0],
        {"--socket <path> --app <name> [--mode informed|uninformed]\n"
         "      [--out <dir>] [--budget <usd-per-run>] "
         "[--threshold-x <flops/B>]\n"
         "      [--deadline-ms <n>] [--retry <n>] [--json] "
         "[--flow <manifest.json>]",
         "--socket <path> --stats [--json] | --metrics | --ping",
         "--socket <path> --logs [--log-max <n>] [--log-level <level>]",
         "--socket <path> --cluster-stats [--json] | --cluster-metrics",
         "--socket <path> --flight [--flight-max <n>] [--json]"});
    parser.str("--socket", "<endpoint>",
               "daemon/router endpoint: socket path or host:port",
               &socket_path);
    parser.str("--app", "<name>", "application to compile", &app);
    parser.str("--mode", "<mode>", "informed|uninformed (default informed)",
               &mode);
    parser.str("--out", "<dir>",
               "output dir (daemon-relative unless absolute)", &out_dir);
    parser.str("--flow", "<manifest.json>",
               "ship a flow manifest with the compile request", &flow_file);
    parser.real("--budget", "<usd-per-run>", "Fig. 3 cost budget", &budget);
    parser.real("--threshold-x", "<flops/B>",
                "arithmetic-intensity threshold (default 4)", &threshold_x);
    parser.integer("--deadline-ms", "<n>",
                   "per-request deadline (0 = daemon default)", &deadline_ms,
                   /*min=*/0);
    parser.integer("--retry", "<n>",
                   "retries when overloaded, honouring retry_after_ms "
                   "with jitter",
                   &retries, /*min=*/0);
    parser.integer("--retry-budget-ms", "<n>",
                   "total time allowed sleeping between retries "
                   "(default 30000)",
                   &retry_budget_ms, /*min=*/0);
    parser.integer("--retry-seed", "<n>",
                   "jitter seed (0 = derived from pid, the usual case)",
                   &retry_seed, /*min=*/0);
    parser.integer("--sleep-ms", "<n>",
                   "test-only: occupy a worker for <n> ms", &sleep_ms,
                   /*min=*/0);
    parser.flag("--stats",
                "fetch the daemon's stats snapshot (table; --json for raw)",
                &stats);
    parser.flag("--metrics",
                "fetch the metrics plane in Prometheus text format",
                &metrics);
    parser.flag("--logs", "fetch the daemon's recent structured logs",
                &logs);
    parser.integer("--log-max", "<n>",
                   "log records to fetch with --logs (default 100)",
                   &log_max, /*min=*/0);
    parser.str("--log-level", "<level>",
               "minimum level for --logs (trace..error; default all)",
               &log_level);
    parser.flag("--ping", "liveness probe", &ping);
    parser.flag("--json", "print the raw response document", &raw_json);
    parser.flag("--cluster-stats",
                "fan-in: per-shard stats plus merged fleet rollups "
                "(router only)",
                &cluster_stats);
    parser.flag("--cluster-metrics",
                "fan-in: per-shard-labeled + merged Prometheus series "
                "(router only)",
                &cluster_metrics);
    parser.flag("--flight",
                "dump the endpoint's flight recorder (recent request "
                "digests)",
                &flight);
    parser.integer("--flight-max", "<n>",
                   "newest flight records to fetch (0 = all retained)",
                   &flight_max, /*min=*/0);
    parser.str("--trace-out", "<file.json>",
               "distributed-trace the request; write the assembled "
               "cross-process span tree",
               &trace_out);
    parser.str("--trace-format", "<fmt>",
               "--trace-out format: json|chrome (default json)",
               &trace_format);

    if (!parser.parse(argc, argv)) return 2;
    if (socket_path.empty() ||
        (app.empty() && !stats && !metrics && !logs && !ping &&
         !cluster_stats && !cluster_metrics && !flight && sleep_ms < 0)) {
        std::cerr << parser.usage();
        return 2;
    }
    if (trace_format != "json" && trace_format != "chrome") {
        std::cerr << "--trace-format must be 'json' or 'chrome'\n";
        return 2;
    }
    std::string endpoint_error;
    const auto endpoint = net::parse_endpoint(socket_path, &endpoint_error);
    if (!endpoint.has_value()) {
        std::cerr << "psaflow-client: " << endpoint_error << "\n";
        return 2;
    }

    json::Value request = serve::make_request(
        stats             ? "stats"
        : cluster_stats   ? "cluster_stats"
        : cluster_metrics ? "cluster_metrics"
        : flight          ? "flight"
        : metrics         ? "metrics"
        : logs            ? "logs"
        : ping            ? "ping"
        : sleep_ms >= 0   ? "sleep"
                          : "compile");
    const std::string type = request.find("type")->string_value;
    if (type == "flight" && flight_max > 0) {
        request.set("max", json::Value::number(double(flight_max)));
    } else if (type == "logs") {
        request.set("max", json::Value::number(double(log_max)));
        if (!log_level.empty())
            request.set("min_level", json::Value::string(log_level));
    } else if (type == "sleep") {
        request.set("ms", json::Value::number(double(sleep_ms)));
        if (deadline_ms > 0)
            request.set("deadline_ms", json::Value::number(double(deadline_ms)));
    } else if (type == "compile") {
        request.set("app", json::Value::string(app));
        request.set("mode", json::Value::string(mode));
        if (budget >= 0.0)
            request.set("budget", json::Value::number(budget));
        request.set("threshold_x", json::Value::number(threshold_x));
        if (!out_dir.empty())
            request.set("out", json::Value::string(out_dir));
        if (deadline_ms > 0)
            request.set("deadline_ms", json::Value::number(double(deadline_ms)));
        if (!flow_file.empty()) {
            // Validate client-side so a broken manifest never leaves the
            // machine; the daemon re-validates on receipt regardless. The
            // wire carries the lowered flow's canonical document.
            try {
                request.set("flow", *json::parse(
                                        flow::read_manifest_file(flow_file)
                                            .canonical));
            } catch (const Error& e) {
                std::cerr << "psaflow-client: " << e.what() << "\n";
                return 2;
            }
        }
    }

    // Overload retries: the server's retry_after_ms hint, jittered so a
    // burst of rejected clients fans back in spread out, bounded both by
    // the attempt count (--retry) and a wall-clock sleep budget
    // (--retry-budget-ms) so a persistently overloaded daemon fails fast
    // rather than pinning the caller.
    SplitMix64 retry_rng(retry_seed != 0
                             ? static_cast<std::uint64_t>(retry_seed)
                             : 0x853c49e6748fea9bULL ^
                                   static_cast<std::uint64_t>(::getpid()));
    cluster::BackoffPolicy backoff;
    backoff.max_attempts = static_cast<int>(retries) + 1;
    long long budget_left_ms = retry_budget_ms;

    // Distributed tracing: the client owns the trace — it mints the trace
    // id and the root span id every downstream hop ultimately parents
    // under, and ships both with the request (W3C-traceparent-style).
    serve::WireTraceContext trace_ctx;
    std::uint64_t client_root = 0;
    if (!trace_out.empty()) {
        trace_ctx.trace_id = serve::mint_trace_id();
        client_root = trace::wire_span_id();
        trace_ctx.parent_span = client_root;
        serve::set_trace_member(request, trace_ctx);
    }

    json::Value response;
    serve::ResponseView view;
    std::uint64_t round_trip_us = 0;
    for (long long attempt = 0;; ++attempt) {
        const auto sent_at = std::chrono::steady_clock::now();
        if (!round_trip(*endpoint, request, response)) return 1;
        round_trip_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - sent_at)
                .count());
        auto parsed = serve::parse_response(response);
        if (!parsed.has_value()) {
            std::cerr << "psaflow-client: response is not a psaflowd "
                         "response document\n";
            return 1;
        }
        view = *parsed;
        if (view.ok || view.error_kind != serve::ErrorKind::Overloaded ||
            attempt >= retries)
            break;
        long long wait = backoff.delay_ms(static_cast<int>(attempt),
                                          retry_rng, view.retry_after_ms);
        if (wait > budget_left_ms) {
            if (budget_left_ms <= 0) break; // budget exhausted: give up
            wait = budget_left_ms;
        }
        budget_left_ms -= wait;
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }

    // Write the assembled cross-process tree even when the request itself
    // failed — a trace of a deadline-exceeded request is exactly what the
    // operator wants to look at.
    if (trace_ctx.traced()) {
        std::vector<trace::Span> spans;
        if (serve::response_trace_id(response) == trace_ctx.trace_id)
            spans = serve::response_trace_spans(response);
        trace::Span root;
        root.name = "client:request";
        root.category = "client";
        root.id = client_root;
        root.start_us = 0;
        root.duration_us = round_trip_us;
        serve::nest_spans(spans, root); // appends the root itself last
        std::string document;
        if (trace_format == "chrome") {
            document = obs::to_chrome_json(spans, "psaflow-client");
        } else {
            trace::Registry registry;
            registry.set_enabled(true);
            for (trace::Span& span : spans)
                registry.add_span(std::move(span));
            document = registry.to_json();
        }
        if (!write_text_file(trace_out, document)) return 1;
        std::cout << "wrote " << trace_format << " trace to " << trace_out
                  << " (" << spans.size() << " span(s))\n";
    }

    if (!view.ok) {
        std::cerr << "psaflow-client: " << to_string(view.error_kind) << ": "
                  << view.error << "\n";
        return exit_code_for(view.error_kind);
    }

    if (raw_json) {
        std::cout << json::dump(response) << "\n";
        return 0;
    }
    if (stats) {
        std::cout << serve::stats_table(response);
        return 0;
    }
    if (cluster_stats) {
        print_cluster_stats(response);
        return 0;
    }
    if (flight) {
        print_flight(response);
        return 0;
    }
    if (metrics || cluster_metrics) {
        const json::Value* body = response.find("body");
        std::cout << (body ? body->string_or("") : std::string());
        return 0;
    }
    if (logs) {
        std::cout << serve::logs_text(response);
        return 0;
    }
    if (ping) {
        std::cout << "pong\n";
        return 0;
    }
    if (sleep_ms >= 0) {
        std::cout << "slept\n";
        return 0;
    }

    const json::Value* count = response.find("design_count");
    const json::Value* best = response.find("best_speedup");
    const json::Value* summary = response.find("summary_path");
    std::cout << app << ": " << (count ? count->number_or(0.0) : 0.0)
              << " design(s), best speedup "
              << format_compact(best ? best->number_or(0.0) : 0.0, 4)
              << "x, summary "
              << (summary ? summary->string_or("") : std::string()) << "\n";
    return 0;
}
