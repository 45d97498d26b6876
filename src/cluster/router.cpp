#include "cluster/router.hpp"

#include <algorithm>
#include <map>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/wire_trace.hpp"
#include "support/histogram.hpp"
#include "support/string_util.hpp"
#include "support/trace.hpp"

namespace psaflow::cluster {

using serve::hit_rate;
using serve::us_since;

namespace {

/// The c of the bounded-load rule (HashRing::pick_bounded): a compile
/// leaves its owner once the owner has ⌈c·(T+1)/n⌉ requests in flight.
/// c = 1 beat c = 1.25 on every perfbench fleet_mixed metric (throughput,
/// tail latency and peak RSS; EXPERIMENTS.md). Not an option: it is a
/// property of the routing rule, not of a deployment.
constexpr double kLoadBound = 1.0;

/// Failover: at most 3 shards per request, jittered backoff from a 50 ms
/// window up to 2 s (BackoffPolicy's defaults), each connection's jitter
/// stream seeded from kJitterSeed and the connection sequence.
constexpr BackoffPolicy kFailover{};
constexpr std::uint64_t kJitterSeed = 0x8a5cd789635d2dffULL;

/// Consecutive failed health pings that take a shard out of the ring.
constexpr int kPingFailuresToEject = 2;

} // namespace

std::optional<ShardConfig> parse_shard_spec(const std::string& spec,
                                            std::string* error) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        if (error != nullptr)
            *error = "shard spec must be name=endpoint, got '" + spec + "'";
        return std::nullopt;
    }
    ShardConfig config;
    config.name = spec.substr(0, eq);
    auto endpoint = net::parse_endpoint(spec.substr(eq + 1), error);
    if (!endpoint.has_value()) return std::nullopt;
    config.endpoint = std::move(*endpoint);
    return config;
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      flight_(options_.flight_capacity,
              static_cast<std::uint64_t>(options_.slo_ms) * 1000) {
    for (const ShardConfig& config : options_.shards) {
        auto shard = std::make_unique<Shard>();
        shard->config = config;
        shards_.push_back(std::move(shard));
    }
}

Router::~Router() {
    notify_shutdown();
    if (health_thread_.joinable()) health_thread_.join();
    front_.join_readers();
}

std::optional<std::string> Router::start() {
    if (shards_.empty()) return "no shards configured";
    for (std::size_t i = 0; i < shards_.size(); ++i)
        for (std::size_t j = i + 1; j < shards_.size(); ++j)
            if (shards_[i]->config.name == shards_[j]->config.name)
                return "duplicate shard name '" + shards_[i]->config.name +
                       "'";
    if (auto error = front_.listen(options_.socket_path, options_.listen_tcp,
                                   options_.recv_timeout_ms))
        return error;

    for (const auto& shard : shards_)
        ring_.add(shard->config.name);

    started_ = std::chrono::steady_clock::now();
    health_thread_ = std::thread([this] { health_loop(); });
    obs::info("cluster.router", "router listening",
              {{"socket", options_.socket_path},
               {"tcp", options_.listen_tcp.empty()
                           ? std::string()
                           : "port " + std::to_string(tcp_port())},
               {"shards", std::to_string(shards_.size())}});
    return std::nullopt;
}

void Router::run() {
    front_.run([this] {
        // Per-connection jitter stream: seeded from kJitterSeed and the
        // connection sequence so concurrent readers never share RNG
        // state yet a single-connection test replays exactly.
        return [this, rng = SplitMix64(kJitterSeed ^
                                       request_seq_.fetch_add(1))](
                   const serve::WireRequest& request, const json::Value& doc,
                   const std::string& payload) mutable {
            return handle(request, doc, payload, rng);
        };
    });
    if (health_thread_.joinable()) health_thread_.join();
    front_.join_readers();
    obs::info("cluster.router", "router drained",
              {{"relayed", std::to_string(relayed_.load())}});
}

bool Router::usable(const std::string& name) const {
    for (const auto& shard : shards_)
        if (shard->config.name == name)
            return shard->healthy.load() && !shard->draining.load();
    return false;
}

Router::Shard* Router::find_shard(const std::string& name) {
    for (const auto& shard : shards_)
        if (shard->config.name == name) return shard.get();
    return nullptr;
}

std::optional<std::string> Router::route_key(std::uint64_t key) {
    return ring_.pick_if(key,
                         [this](const std::string& s) { return usable(s); });
}

Router::Reservation Router::reserve(std::uint64_t key, bool bounded) {
    Reservation picked;
    if (!bounded) {
        const auto owner = route_key(key);
        if (owner.has_value()) picked.owner = find_shard(*owner);
        picked.shard = picked.owner;
    } else {
        std::lock_guard lock(reserve_mu_);
        std::map<std::string, std::uint64_t> loads; // usable shards only
        for (const auto& shard : shards_)
            if (shard->healthy.load() && !shard->draining.load())
                loads.emplace(shard->config.name, shard->in_flight.load());
        const auto choice = ring_.pick_bounded(key, loads, kLoadBound);
        if (choice.has_value()) {
            picked.shard = find_shard(choice->shard);
            picked.owner = find_shard(choice->owner);
            if (choice->spilled()) picked.owner->spills.fetch_add(1);
        }
    }
    if (picked.shard != nullptr) picked.shard->in_flight.fetch_add(1);
    return picked;
}

Router::ForwardOutcome Router::forward(std::uint64_t key, bool bounded,
                                       const std::string& payload,
                                       SplitMix64& rng) {
    // Candidate shards in ring order: the owner (or, for a compile at the
    // owner's load bound, the next shard under it), then deterministic
    // failover successors. The attempt budget spans candidates — a dead
    // shard costs one attempt, the re-pick among the rest gets the next.
    ForwardOutcome outcome;
    Shard* owner = nullptr;
    for (int attempt = 0; attempt < kFailover.max_attempts; ++attempt) {
        const Reservation picked = reserve(key, bounded);
        Shard* shard = picked.shard;
        if (shard == nullptr) break; // nothing usable right now
        if (owner == nullptr) owner = picked.owner;
        if (attempt > 0) {
            retries_.fetch_add(1);
            const long long delay = kFailover.delay_ms(attempt - 1, rng);
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
        ++outcome.attempts;
        shard->routed.fetch_add(1);
        // Any transport failure counts the shard as down for this attempt.
        const bool answered =
            net::round_trip(shard->config.endpoint, payload,
                            options_.recv_timeout_ms, outcome.response,
                            nullptr) == net::FrameStatus::Ok;
        shard->in_flight.fetch_sub(1);
        if (answered) {
            relayed_.fetch_add(1);
            outcome.shard = shard->config.name;
            return outcome; // verbatim relay: byte-identical to direct
        }
        // Transport failure: eject immediately (the health loop readmits
        // once the shard answers pings again) and try the next candidate.
        shard->failures.fetch_add(1);
        shard->healthy.store(false);
        if (owner != nullptr && shard == owner)
            owner->rerouted_away.fetch_add(1);
        obs::warn("cluster.router", "shard failed, rerouting",
                  {{"shard", shard->config.name},
                   {"key", hex_u64(key)},
                   {"attempt", std::to_string(attempt + 1)}});
    }
    no_shard_.fetch_add(1);
    outcome.response = json::dump(serve::make_error_response(
        serve::ErrorKind::Overloaded, "no healthy shard available",
        kFailover.base_ms * 2));
    return outcome;
}

std::string Router::relay(const serve::WireRequest& request,
                          const json::Value& doc, std::uint64_t key,
                          const std::string& payload, SplitMix64& rng) {
    const auto received = std::chrono::steady_clock::now();
    const bool traced = request.trace.traced();
    std::uint64_t relay_id = 0;
    std::string wire = payload;
    if (traced) {
        // Interpose the relay span: the shard parents its serve:request
        // on the relay, and the relay keeps the client's original parent.
        relay_id = trace::wire_span_id();
        json::Value rewritten = doc;
        serve::WireTraceContext ctx;
        ctx.trace_id = request.trace.trace_id;
        ctx.parent_span = relay_id;
        serve::set_trace_member(rewritten, ctx);
        wire = json::dump(rewritten);
    }

    const ForwardOutcome outcome = forward(
        key, request.type == serve::RequestType::Compile, wire, rng);
    const std::uint64_t elapsed_us = us_since(received);
    const auto response_doc = json::parse(outcome.response, nullptr);

    obs::FlightRecord flight;
    flight.trace_id = request.trace.trace_id;
    flight.set_shard(outcome.shard);
    flight.exec_us = elapsed_us;
    flight.total_us = elapsed_us;
    flight.retries = outcome.attempts > 0
                         ? static_cast<std::uint32_t>(outcome.attempts - 1)
                         : 0;
    switch (request.type) {
    case serve::RequestType::Compile:
        flight.set_app(request.compile.app);
        flight.set_lane(serve::to_string(request.compile.priority));
        break;
    case serve::RequestType::CasGet: flight.set_app("cas_get"); break;
    case serve::RequestType::CasPut: flight.set_app("cas_put"); break;
    case serve::RequestType::Sleep: flight.set_app("sleep"); break;
    default: flight.set_app("other"); break;
    }
    std::string status = "ok";
    if (!response_doc.has_value()) {
        status = "internal";
    } else if (const auto view = serve::parse_response(*response_doc);
               view.has_value() && !view->ok) {
        status = serve::to_string(view->error_kind);
    }
    flight.set_status(status);
    flight_.record(flight);

    if (!traced || !response_doc.has_value()) return outcome.response;

    // Graft the shard's span summary under the relay span. Responses
    // without one (transport-level errors) still gain the relay span, so
    // the client's tree records the hop that failed.
    std::vector<trace::Span> spans =
        serve::response_trace_spans(*response_doc);
    trace::Span wrapper;
    wrapper.name = "router:relay";
    wrapper.category = "cluster";
    wrapper.id = relay_id;
    wrapper.parent = request.trace.parent_span;
    wrapper.start_us = 0;
    wrapper.duration_us = elapsed_us;
    wrapper.work_units = double(flight.retries);
    serve::nest_spans(spans, wrapper);
    json::Value rebuilt = *response_doc;
    serve::attach_response_trace(rebuilt, request.trace.trace_id, spans);
    return json::dump(rebuilt);
}

std::string Router::handle_admin(const json::Value& doc) {
    const json::Value* shard = doc.find("shard");
    const json::Value* draining = doc.find("draining");
    if (shard == nullptr || !shard->is_string() || draining == nullptr ||
        draining->kind != json::Value::Kind::Bool)
        return json::dump(serve::make_error_response(
            serve::ErrorKind::BadRequest,
            "drain needs string \"shard\" and bool \"draining\""));
    if (!set_drain(shard->string_value, draining->bool_value))
        return json::dump(serve::make_error_response(
            serve::ErrorKind::BadRequest,
            "unknown shard '" + shard->string_value + "'"));
    json::Value response = serve::make_ok_response("drain");
    response.set("shard", json::Value::string(shard->string_value));
    response.set("draining", json::Value::boolean(draining->bool_value));
    return json::dump(response);
}

bool Router::set_drain(const std::string& shard_name, bool draining) {
    Shard* shard = find_shard(shard_name);
    if (shard == nullptr) return false;
    shard->draining.store(draining);
    obs::info("cluster.router",
              draining ? "shard draining" : "shard rejoined",
              {{"shard", shard_name}});
    return true;
}

std::string Router::handle(const serve::WireRequest& request,
                           const json::Value& doc, const std::string& payload,
                           SplitMix64& rng) {
    if (auto answer = answer_inline(request, doc)) {
        inline_answers_.fetch_add(1);
        return std::move(*answer);
    }
    // A routed request. The original payload is forwarded untouched so the
    // shard sees — and the client receives — the exact bytes. (A *traced*
    // request is the one exception: the router re-points the trace's
    // parent_span at its own relay span before forwarding, and wraps the
    // shard's returned spans in that relay span on the way back.)
    //
    // Keyless requests (e.g. sleep) round-robin by sequence number, but
    // the raw counter must be mixed first: ring positions are uniform
    // 64-bit hashes, and sequential integers all sit below the same first
    // vnode — unmixed, every keyless request would land on one shard.
    std::uint64_t key = SplitMix64(request_seq_.fetch_add(1)).next_u64();
    if (request.type == serve::RequestType::Compile)
        key = serve::affinity_digest(request.compile);
    else if (request.type == serve::RequestType::CasGet ||
             request.type == serve::RequestType::CasPut)
        key = request.cas_key;
    return relay(request, doc, key, payload, rng);
}

std::optional<std::string>
Router::answer_inline(const serve::WireRequest& request,
                      const json::Value& doc) {
    switch (request.type) {
    case serve::RequestType::Ping:
        return json::dump(serve::make_pong_response());
    case serve::RequestType::Stats:
        return json::dump(stats_json());
    case serve::RequestType::Metrics:
        return json::dump(
            serve::make_metrics_response("metrics", metrics_text()));
    case serve::RequestType::Logs:
        return json::dump(serve::make_logs_response(request.logs_max,
                                                    request.logs_min_level));
    case serve::RequestType::Drain:
        return handle_admin(doc);
    case serve::RequestType::Flight:
        return json::dump(
            serve::make_flight_response(flight_, request.flight_max));
    case serve::RequestType::ClusterStats:
        return json::dump(cluster_stats_json());
    case serve::RequestType::ClusterMetrics:
        return json::dump(serve::make_metrics_response(
            "cluster_metrics", cluster_metrics_text()));
    default:
        return std::nullopt; // compile, cas_get, cas_put, sleep: relayed
    }
}

bool Router::ping_shard(Shard& shard) {
    std::string response;
    // Health probes use a short stall cap: a shard that cannot answer a
    // ping within the health interval is not usefully alive.
    const long long timeout =
        options_.health_interval_ms > 0 ? options_.health_interval_ms : 500;
    return net::round_trip(shard.config.endpoint,
                           json::dump(serve::make_request("ping")), timeout,
                           response, nullptr) == net::FrameStatus::Ok;
}

void Router::health_loop() {
    const auto interval = std::chrono::milliseconds(
        options_.health_interval_ms > 0 ? options_.health_interval_ms : 500);
    while (!front_.draining()) {
        for (const auto& shard : shards_) {
            if (front_.draining()) return;
            if (ping_shard(*shard)) {
                shard->ping_failures.store(0);
                if (!shard->healthy.exchange(true))
                    obs::info("cluster.router", "shard rejoined",
                              {{"shard", shard->config.name}});
            } else {
                const int failures = shard->ping_failures.fetch_add(1) + 1;
                if (failures >= kPingFailuresToEject &&
                    shard->healthy.exchange(false))
                    obs::warn("cluster.router", "shard unhealthy",
                              {{"shard", shard->config.name},
                               {"failures", std::to_string(failures)}});
            }
        }
        // Sleep in small slices so shutdown stays prompt.
        auto remaining = interval;
        while (remaining.count() > 0 && !front_.draining()) {
            const auto slice =
                std::min(remaining, std::chrono::milliseconds(50));
            std::this_thread::sleep_for(slice);
            remaining -= slice;
        }
    }
}

std::vector<ShardView> Router::shard_views() const {
    std::vector<ShardView> views;
    views.reserve(shards_.size());
    for (const auto& shard : shards_) {
        ShardView view;
        view.name = shard->config.name;
        view.endpoint = shard->config.endpoint.describe();
        view.healthy = shard->healthy.load();
        view.draining = shard->draining.load();
        view.routed = shard->routed.load();
        view.failures = shard->failures.load();
        view.rerouted_away = shard->rerouted_away.load();
        view.in_flight = shard->in_flight.load();
        view.spills = shard->spills.load();
        views.push_back(std::move(view));
    }
    return views;
}

json::Value Router::stats_json() {
    json::Value stats = serve::make_ok_response("stats");
    stats.set("role", json::Value::string("router"));
    stats.set("uptime_us", json::Value::number(double(us_since(started_))));
    stats.set("requests", json::Value::number(double(front_.requests())));
    stats.set("pings", json::Value::number(double(front_.pings())));
    stats.set("relayed", json::Value::number(double(relayed_.load())));
    stats.set("retries", json::Value::number(double(retries_.load())));
    stats.set("no_shard", json::Value::number(double(no_shard_.load())));
    stats.set("bad_requests",
              json::Value::number(double(front_.bad_requests())));
    stats.set("inline_answers",
              json::Value::number(double(inline_answers_.load())));
    json::Value shards = json::Value::array();
    for (const ShardView& view : shard_views()) {
        json::Value entry = json::Value::object();
        entry.set("name", json::Value::string(view.name));
        entry.set("endpoint", json::Value::string(view.endpoint));
        entry.set("healthy", json::Value::boolean(view.healthy));
        entry.set("draining", json::Value::boolean(view.draining));
        entry.set("routed", json::Value::number(double(view.routed)));
        entry.set("failures", json::Value::number(double(view.failures)));
        entry.set("rerouted_away",
                  json::Value::number(double(view.rerouted_away)));
        entry.set("spills", json::Value::number(double(view.spills)));
        shards.push(std::move(entry));
    }
    stats.set("shards", std::move(shards));
    return stats;
}

std::string Router::metrics_text() {
    obs::PrometheusRenderer renderer;
    renderer.gauge("psaflow_router_uptime_seconds",
                   "Seconds since router start",
                   double(us_since(started_)) / 1e6);
    renderer.counter("psaflow_router_requests_total",
                     "Frames received from clients, pings excluded",
                     double(front_.requests()));
    renderer.counter("psaflow_router_pings_total",
                     "Ping frames received from clients",
                     double(front_.pings()));
    renderer.counter("psaflow_router_relayed_total",
                     "Requests forwarded and answered by a shard",
                     double(relayed_.load()));
    renderer.counter("psaflow_router_retries_total",
                     "Failover re-sends after a shard transport failure",
                     double(retries_.load()));
    renderer.counter("psaflow_router_no_shard_total",
                     "Requests failed with no healthy shard",
                     double(no_shard_.load()));
    renderer.counter("psaflow_router_bad_requests_total",
                     "Malformed client requests",
                     double(front_.bad_requests()));
    renderer.counter("psaflow_router_inline_answers_total",
                     "Requests the router answered itself",
                     double(inline_answers_.load()));
    for (const ShardView& view : shard_views()) {
        const obs::MetricLabels labels = {{"shard", view.name}};
        renderer.gauge("psaflow_router_shard_healthy",
                       "1 when the shard passes health checks",
                       view.healthy ? 1.0 : 0.0, labels);
        renderer.gauge("psaflow_router_shard_draining",
                       "1 while the shard is drained out of rotation",
                       view.draining ? 1.0 : 0.0, labels);
        renderer.counter("psaflow_router_shard_routed_total",
                         "Requests forwarded to this shard", // incl. retries
                         double(view.routed), labels);
        renderer.counter("psaflow_router_shard_failures_total",
                         "Transport failures talking to this shard",
                         double(view.failures), labels);
        renderer.counter("psaflow_router_shard_rerouted_total",
                         "Owned requests lost to a failover successor",
                         double(view.rerouted_away), labels);
        renderer.gauge("psaflow_router_shard_in_flight",
                       "Requests awaiting this shard's response",
                       double(view.in_flight), labels);
        renderer.counter("psaflow_router_shard_spills_total",
                         "Owned compiles sent on because it was at its "
                         "load bound",
                         double(view.spills), labels);
    }
    return renderer.text();
}

namespace {

std::uint64_t member_u64(const json::Value& doc, const char* key) {
    const json::Value* v = doc.find(key);
    return v == nullptr ? 0 : static_cast<std::uint64_t>(v->number_or(0.0));
}

/// Everything the two cluster endpoints aggregate from one scrape pass.
struct FleetRollup {
    std::size_t live = 0;
    Histogram request_latency;
    Histogram queue_wait;
    serve::CounterMap counters;
    std::uint64_t completed = 0;
    std::uint64_t received = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t queue_depth = 0;
    std::vector<std::uint64_t> lane_depths;
    double aggregate_qps = 0.0; ///< sum of per-shard completed/uptime
};

/// Fold one shard's stats document into `fleet`; returns the shard's
/// completed requests per second (0 without an uptime).
double fold_shard(FleetRollup& fleet, const json::Value& doc) {
    ++fleet.live;
    fleet.request_latency.merge(
        Histogram::from_json(doc.find("request_latency_us")));
    fleet.queue_wait.merge(Histogram::from_json(doc.find("queue_wait_us")));
    if (const json::Value* counters = doc.find("counters");
        counters != nullptr && counters->is_object())
        for (const auto& [name, value] : counters->members)
            fleet.counters[name] +=
                static_cast<std::uint64_t>(value.number_or(0.0));
    std::uint64_t completed = 0;
    if (const json::Value* requests = doc.find("requests");
        requests != nullptr && requests->is_object()) {
        completed = member_u64(*requests, "completed");
        fleet.received += member_u64(*requests, "received");
    }
    fleet.completed += completed;
    const std::uint64_t uptime_us = member_u64(doc, "uptime_us");
    const double qps = uptime_us > 0
                           ? static_cast<double>(completed) /
                                 (static_cast<double>(uptime_us) / 1e6)
                           : 0.0;
    fleet.aggregate_qps += qps;
    fleet.in_flight += member_u64(doc, "in_flight");
    fleet.queue_depth += member_u64(doc, "queue_depth");
    if (const json::Value* lanes = doc.find("queue_lane_depths");
        lanes != nullptr && lanes->is_array()) {
        if (fleet.lane_depths.size() < lanes->elements.size())
            fleet.lane_depths.resize(lanes->elements.size(), 0);
        for (std::size_t lane = 0; lane < lanes->elements.size(); ++lane)
            fleet.lane_depths[lane] += static_cast<std::uint64_t>(
                lanes->elements[lane].number_or(0.0));
    }
    return qps;
}

} // namespace

std::vector<Router::ShardScrape> Router::scrape_shards() {
    const std::string payload = json::dump(serve::make_request("stats"));

    // One scrape thread per shard: the endpoints answer stats inline even
    // under full load, so the fan-in takes one round trip, not N.
    std::vector<ShardScrape> scrapes(shards_.size());
    std::vector<std::thread> threads;
    threads.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i)
        threads.emplace_back([this, &scrapes, &payload, i] {
            std::string response;
            if (net::round_trip(shards_[i]->config.endpoint, payload,
                                options_.recv_timeout_ms, response,
                                nullptr) != net::FrameStatus::Ok)
                return;
            auto doc = json::parse(response, nullptr);
            if (!doc.has_value()) return;
            const json::Value* ok = doc->find("ok");
            if (ok == nullptr || !ok->bool_value) return;
            scrapes[i].reachable = true;
            scrapes[i].stats = std::move(*doc);
        });
    for (std::thread& thread : threads) thread.join();
    return scrapes;
}

json::Value Router::cluster_stats_json() {
    const std::vector<ShardScrape> scrapes = scrape_shards();

    json::Value stats = serve::make_ok_response("cluster_stats");
    stats.set("role", json::Value::string("router"));
    stats.set("uptime_us", json::Value::number(double(us_since(started_))));

    FleetRollup fleet;
    json::Value shard_list = json::Value::array();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard& shard = *shards_[i];
        json::Value entry = json::Value::object();
        entry.set("name", json::Value::string(shard.config.name));
        entry.set("endpoint",
                  json::Value::string(shard.config.endpoint.describe()));
        entry.set("healthy", json::Value::boolean(shard.healthy.load()));
        entry.set("draining", json::Value::boolean(shard.draining.load()));
        entry.set("reachable",
                  json::Value::boolean(scrapes[i].reachable));
        if (scrapes[i].reachable) {
            fold_shard(fleet, scrapes[i].stats);
            entry.set("stats", scrapes[i].stats); // the raw shard document
        }
        shard_list.push(std::move(entry));
    }
    stats.set("shards_total", json::Value::number(double(shards_.size())));
    stats.set("shards_live", json::Value::number(double(fleet.live)));
    stats.set("shards", std::move(shard_list));

    json::Value rollup = json::Value::object();
    rollup.set("completed", json::Value::number(double(fleet.completed)));
    rollup.set("received", json::Value::number(double(fleet.received)));
    rollup.set("aggregate_qps", json::Value::number(fleet.aggregate_qps));
    rollup.set("in_flight", json::Value::number(double(fleet.in_flight)));
    rollup.set("queue_depth",
               json::Value::number(double(fleet.queue_depth)));
    json::Value lanes = json::Value::array();
    for (const std::uint64_t depth : fleet.lane_depths)
        lanes.push(json::Value::number(double(depth)));
    rollup.set("queue_lane_depths", std::move(lanes));
    rollup.set("request_latency_us", fleet.request_latency.to_json());
    rollup.set("queue_wait_us", fleet.queue_wait.to_json());

    rollup.set("cache", serve::cache_hit_rates(fleet.counters));

    json::Value merged_counters = json::Value::object();
    for (const auto& [name, value] : fleet.counters)
        merged_counters.set(name, json::Value::number(double(value)));
    rollup.set("counters", std::move(merged_counters));
    stats.set("fleet", std::move(rollup));
    return stats;
}

std::string Router::cluster_metrics_text() {
    const std::vector<ShardScrape> scrapes = scrape_shards();

    obs::PrometheusRenderer renderer;
    FleetRollup fleet;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard& shard = *shards_[i];
        const obs::MetricLabels labels = {
            {"shard", shard.config.name},
            {"endpoint", shard.config.endpoint.describe()}};
        renderer.gauge("psaflow_cluster_shard_up",
                       "1 when the shard answered the stats scrape",
                       scrapes[i].reachable ? 1.0 : 0.0, labels);
        if (!scrapes[i].reachable) continue;
        const json::Value& doc = scrapes[i].stats;
        const double qps = fold_shard(fleet, doc);

        // Per-shard-labeled re-exposure of each shard's histograms and
        // outcome tallies: the merged psaflow_cluster_* series below are
        // rebuilt from the same scraped buckets, so merged counts are
        // exactly the sums of these.
        renderer.histogram("psaflow_cluster_shard_request_latency_us",
                           "Per-shard receipt-to-response latency",
                           Histogram::from_json(
                               doc.find("request_latency_us")),
                           labels);
        renderer.histogram("psaflow_cluster_shard_queue_wait_us",
                           "Per-shard admission-to-execution wait",
                           Histogram::from_json(doc.find("queue_wait_us")),
                           labels);
        if (const json::Value* requests = doc.find("requests");
            requests != nullptr && requests->is_object())
            for (const auto& [outcome, value] : requests->members) {
                obs::MetricLabels outcome_labels = labels;
                outcome_labels.emplace_back("outcome", outcome);
                renderer.counter("psaflow_cluster_shard_requests_total",
                                 "Per-shard requests by outcome",
                                 value.number_or(0.0), outcome_labels);
            }
        if (member_u64(doc, "uptime_us") > 0)
            renderer.gauge("psaflow_cluster_shard_qps",
                           "Per-shard completed requests per second", qps,
                           labels);
        if (const json::Value* lanes = doc.find("queue_lane_depths");
            lanes != nullptr && lanes->is_array())
            for (std::size_t lane = 0; lane < lanes->elements.size();
                 ++lane) {
                obs::MetricLabels lane_labels = labels;
                lane_labels.emplace_back("lane", std::to_string(lane));
                renderer.gauge("psaflow_cluster_shard_queue_lane_depth",
                               "Per-shard jobs waiting, by priority lane",
                               lanes->elements[lane].number_or(0.0),
                               lane_labels);
            }
    }

    renderer.gauge("psaflow_cluster_shards", "Configured shards",
                   double(shards_.size()));
    renderer.gauge("psaflow_cluster_shards_live",
                   "Shards that answered the stats scrape",
                   double(fleet.live));
    renderer.gauge("psaflow_cluster_aggregate_qps",
                   "Sum of per-shard completed requests per second",
                   fleet.aggregate_qps);
    renderer.gauge("psaflow_cluster_in_flight",
                   "Jobs executing across the fleet",
                   double(fleet.in_flight));
    renderer.gauge("psaflow_cluster_queue_depth",
                   "Jobs waiting across the fleet",
                   double(fleet.queue_depth));
    for (std::size_t lane = 0; lane < fleet.lane_depths.size(); ++lane)
        renderer.gauge("psaflow_cluster_queue_lane_depth",
                       "Fleet jobs waiting, by priority lane",
                       double(fleet.lane_depths[lane]),
                       {{"lane", std::to_string(lane)}});
    renderer.counter("psaflow_cluster_completed_total",
                     "Completed requests across the fleet",
                     double(fleet.completed));
    renderer.histogram("psaflow_cluster_request_latency_us",
                       "Merged receipt-to-response latency (all shards)",
                       fleet.request_latency);
    renderer.histogram("psaflow_cluster_queue_wait_us",
                       "Merged admission-to-execution wait (all shards)",
                       fleet.queue_wait);

    renderer.gauge("psaflow_cluster_cas_hit_rate", "Fleet CAS hit rate",
                   hit_rate(fleet.counters, "cas.hits", "cas.misses"));
    renderer.gauge("psaflow_cluster_profile_cache_hit_rate",
                   "Fleet profile-cache hit rate",
                   hit_rate(fleet.counters, "profile_cache.hits",
                            "profile_cache.misses"));
    renderer.gauge("psaflow_cluster_remote_cas_hit_rate",
                   "Fleet remote-CAS hit rate",
                   hit_rate(fleet.counters, "cas.remote_hits",
                            "cas.remote_misses"));
    for (const auto& [name, value] : fleet.counters)
        renderer.counter(
            obs::sanitize_metric_name(name, "psaflow_cluster_"),
            "Fleet-summed psaflow trace counter " + name, double(value));
    return renderer.text();
}

} // namespace psaflow::cluster
