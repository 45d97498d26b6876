// psaflow-router — consistent-hash front door for a psaflowd shard fleet.
//
// Speaks the same framed wire protocol as psaflowd on both sides, so
// clients cannot tell a router from a daemon (byte-identical responses —
// the router relays a shard's response payload verbatim, it never
// re-serialises). Per request:
//
//   * compile   → routed by affinity_digest (the module-content key every
//                 warm cache keys off), so repeat compiles of one module
//                 land on the shard that already holds its artifacts —
//                 unless that shard is at its load bound: the key then
//                 spills to the next ring shard under ⌈c·(T+1)/n⌉ in-flight
//                 requests (HashRing::pick_bounded, c = 1).
//   * cas_get/  → routed by the cas key, giving each artifact a home
//     cas_put     shard; shards pointed at the router with --cas-upstream
//                 get a shared cluster artifact tier for free.
//   * sleep     → routed by request sequence (spreads test load).
//   * ping/stats/metrics/logs → answered by the router itself: its own
//                 liveness, the cluster view (per-shard health/counters),
//                 psaflow_router_* Prometheus series, its own log ring.
//   * drain     → admin: {"type":"drain","shard":"a","draining":true}
//                 takes a shard out of rotation without killing it (and
//                 back in with false) for graceful rolling restarts.
//
// Serving (listeners, a reader thread per client connection, the frame
// loop and its receive timeout, the drain) is the shared serve::FrontEnd
// psaflowd runs too; the router supplies the handler that answers or
// relays each request, holding the connection while the shard answers.
// `recv_timeout_ms` caps a client's stall mid-frame and a shard's reply.
//
// Failure handling: a transport failure on a shard marks it unhealthy and
// the request retries on the next ring candidate after a jittered backoff
// (cluster/retry.hpp), up to the attempt budget. A health thread pings
// every shard on an interval; a previously failed shard that answers again
// rejoins the ring automatically. Application-level errors (bad_request,
// overloaded, …) are relayed untouched — the shard knows, the client
// decides.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/retry.hpp"
#include "obs/flight.hpp"
#include "serve/front_end.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "support/net.hpp"

namespace psaflow::cluster {

struct ShardConfig {
    std::string name;
    net::Endpoint endpoint;
};

/// Parse a `--shard name=endpoint` spec. nullopt + `*error` on bad input.
[[nodiscard]] std::optional<ShardConfig>
parse_shard_spec(const std::string& spec, std::string* error);

struct RouterOptions {
    std::string socket_path;       ///< Unix listener ("" = TCP only)
    std::string listen_tcp;        ///< "host:port" ("" = none; port 0 = ephemeral)
    std::vector<ShardConfig> shards;
    long long health_interval_ms = 500;
    long long recv_timeout_ms = 30000; ///< client mid-frame and shard
                                       ///< response stall cap
    long long slo_ms = 0; ///< flight-recorder latency SLO (0 = disabled)
    std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
};

/// Per-shard monotonic tallies, readable while serving.
struct ShardView {
    std::string name;
    std::string endpoint;
    bool healthy = true;
    bool draining = false;
    std::uint64_t routed = 0;     ///< requests forwarded (incl. retries)
    std::uint64_t failures = 0;   ///< transport failures observed
    std::uint64_t rerouted_away = 0; ///< requests this shard owned but lost
    std::uint64_t in_flight = 0; ///< requests awaiting its response now
    std::uint64_t spills = 0; ///< owned compiles sent elsewhere at its bound
};

class Router {
public:
    explicit Router(RouterOptions options);
    ~Router();

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    /// Bind listeners, build the ring, start the health thread. Error
    /// message on failure (router unusable afterwards).
    [[nodiscard]] std::optional<std::string> start();

    /// Accept/serve until notify_shutdown().
    void run();

    /// Async-signal-safe shutdown request (self-pipe write).
    void notify_shutdown() noexcept { front_.notify_shutdown(); }
    /// The shared front end (signal wiring, the start-up line).
    [[nodiscard]] serve::FrontEnd& front_end() { return front_; }

    [[nodiscard]] std::uint16_t tcp_port() const { return front_.tcp_port(); }

    /// Cluster stats document ({"type":"stats"} answered by the router).
    [[nodiscard]] json::Value stats_json();

    /// Prometheus exposition: psaflow_router_* series.
    [[nodiscard]] std::string metrics_text();

    /// Fleet fan-in ({"type":"cluster_stats"}): scrape every shard's
    /// stats endpoint concurrently and return the per-shard documents
    /// plus merged fleet rollups (aggregate qps, merged latency/queue
    /// histograms, summed counters, cache hit rates, lane depths).
    [[nodiscard]] json::Value cluster_stats_json();

    /// {"type":"cluster_metrics"}: Prometheus exposition of the same
    /// fan-in — every shard histogram re-exposed under psaflow_cluster_*
    /// with shard/endpoint labels, beside merged (label-free) series
    /// rebuilt via Histogram::from_json so merged bucket counts are
    /// exactly the sums of the per-shard scrapes.
    [[nodiscard]] std::string cluster_metrics_text();

    /// Admin drain toggle; false when the shard name is unknown.
    bool set_drain(const std::string& shard, bool draining);

    [[nodiscard]] std::vector<ShardView> shard_views() const;

    /// The shard a key routes to right now (health- and drain-aware);
    /// exposed for tests and the drain admin path.
    [[nodiscard]] std::optional<std::string> route_key(std::uint64_t key);

    /// Connection reader threads not yet joined (live ones, plus those
    /// finished since the last accept).
    [[nodiscard]] std::size_t reader_threads() const {
        return front_.reader_threads();
    }

private:
    struct Shard {
        ShardConfig config;
        std::atomic<bool> healthy{true};
        std::atomic<bool> draining{false};
        std::atomic<int> ping_failures{0};
        std::atomic<std::uint64_t> routed{0};
        std::atomic<std::uint64_t> failures{0};
        std::atomic<std::uint64_t> rerouted_away{0};
        std::atomic<std::uint64_t> in_flight{0};
        std::atomic<std::uint64_t> spills{0};
    };

    /// The front end's handler: answer `request` inline or relay it.
    /// `rng` is the connection's backoff-jitter stream.
    [[nodiscard]] std::string handle(const serve::WireRequest& request,
                                     const json::Value& doc,
                                     const std::string& payload,
                                     SplitMix64& rng);
    /// One relayed request's outcome: the response to send back plus the
    /// relay telemetry the flight recorder wants.
    struct ForwardOutcome {
        std::string response; ///< winning shard's raw response, or a
                              ///< locally minted error document
        std::string shard;    ///< winning shard's name ("" = none)
        int attempts = 0;     ///< shards tried (retries = attempts - 1)
    };
    /// Forward `payload` to the shards owning `key` (ring order, with
    /// backoff between attempts). A `bounded` request (a compile) may
    /// spill past an owner at its load bound.
    [[nodiscard]] ForwardOutcome forward(std::uint64_t key, bool bounded,
                                         const std::string& payload,
                                         SplitMix64& rng);
    /// One attempt's shard, its in_flight already counted, and the key's
    /// owner among the usable shards. shard == nullptr: none is usable.
    struct Reservation {
        Shard* shard = nullptr;
        Shard* owner = nullptr;
    };
    /// Pick the attempt's shard and count it in flight. Unbounded: the
    /// owner. Bounded: HashRing::pick_bounded over the in-flight counts,
    /// picked and counted under one lock so two concurrent compiles
    /// cannot both take a shard's last slot.
    [[nodiscard]] Reservation reserve(std::uint64_t key, bool bounded);
    /// Relay one routed request: rewrite the trace context when traced,
    /// forward, wrap the returned spans, and drop a flight record.
    [[nodiscard]] std::string relay(const serve::WireRequest& request,
                                    const json::Value& doc,
                                    std::uint64_t key,
                                    const std::string& payload,
                                    SplitMix64& rng);
    /// One shard's {"type":"stats"} scrape (cluster_stats fan-in).
    struct ShardScrape {
        bool reachable = false;
        json::Value stats; ///< the shard's raw stats document
    };
    /// Scrape every shard concurrently, in shards_ order.
    [[nodiscard]] std::vector<ShardScrape> scrape_shards();
    /// The response to a request the router answers itself (ping, stats,
    /// metrics, logs, flight, drain, cluster_*); nullopt for one it relays.
    [[nodiscard]] std::optional<std::string>
    answer_inline(const serve::WireRequest& request, const json::Value& doc);
    [[nodiscard]] std::string handle_admin(const json::Value& doc);
    void health_loop();
    [[nodiscard]] bool ping_shard(Shard& shard);
    [[nodiscard]] Shard* find_shard(const std::string& name);
    [[nodiscard]] bool usable(const std::string& name) const;

    RouterOptions options_;
    obs::FlightRecorder flight_; ///< one digest per relayed request
    HashRing ring_; ///< immutable after start(); health is a predicate
    std::vector<std::unique_ptr<Shard>> shards_;
    std::thread health_thread_;
    std::mutex reserve_mu_; ///< serialises bounded picks (reserve())
    std::atomic<std::uint64_t> request_seq_{0};
    std::atomic<std::uint64_t> relayed_{0};
    std::atomic<std::uint64_t> retries_{0};
    std::atomic<std::uint64_t> no_shard_{0};
    std::atomic<std::uint64_t> inline_answers_{0};
    std::chrono::steady_clock::time_point started_;
    serve::FrontEnd front_; ///< last: its readers call into the members above
};

} // namespace psaflow::cluster
