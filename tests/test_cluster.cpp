// Cluster-layer tests: consistent-hash ring stability and failover,
// backoff jitter, shard specs, and an in-process two-shard fleet behind a
// live Router — byte-identity of routed versus direct designs, drain and
// rejoin, transport-failure failover, and the remote-CAS wire round trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/remote_cas.hpp"
#include "cluster/retry.hpp"
#include "cluster/router.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "support/net.hpp"
#include "support/prng.hpp"

namespace psaflow {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------- hash ring ----

TEST(HashRing, SpreadsKeysRoughlyEvenlyAcrossShards) {
    cluster::HashRing ring;
    for (const char* name : {"a", "b", "c", "d"}) ring.add(name);
    ASSERT_EQ(ring.shard_count(), 4u);

    std::map<std::string, int> owned;
    SplitMix64 rng(1);
    const int kKeys = 8192;
    for (int i = 0; i < kKeys; ++i) {
        auto owner = ring.pick(rng.next_u64());
        ASSERT_TRUE(owner.has_value());
        ++owned[*owner];
    }
    // With 64 vnodes per shard no shard should stray far from 25%.
    ASSERT_EQ(owned.size(), 4u);
    for (const auto& [name, count] : owned) {
        EXPECT_GT(count, kKeys / 10) << name << " starved";
        EXPECT_LT(count, kKeys / 2) << name << " overloaded";
    }
}

TEST(HashRing, TopologyChangeMovesOnlyTheJoinersSlice) {
    cluster::HashRing three;
    for (const char* name : {"a", "b", "c"}) three.add(name);
    cluster::HashRing four = three;
    four.add("d");

    // Every key that changed owner moved TO the joiner — nothing shuffles
    // between surviving shards — and roughly 1/N of the keyspace moved.
    SplitMix64 rng(7);
    const int kKeys = 4096;
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
        const std::uint64_t key = rng.next_u64();
        const std::string before = *three.pick(key);
        const std::string after = *four.pick(key);
        if (before != after) {
            EXPECT_EQ(after, "d") << "key moved between survivors";
            ++moved;
        }
    }
    EXPECT_GT(moved, kKeys / 10);
    EXPECT_LT(moved, kKeys / 2);

    // Removing the joiner restores the original ownership exactly, so a
    // drained-and-rejoined shard gets its warm keys back.
    four.remove("d");
    rng = SplitMix64(7);
    for (int i = 0; i < kKeys; ++i) {
        const std::uint64_t key = rng.next_u64();
        EXPECT_EQ(*four.pick(key), *three.pick(key));
    }
}

TEST(HashRing, PickIfWalksPastUnusableShardsDeterministically) {
    cluster::HashRing ring;
    for (const char* name : {"a", "b", "c"}) ring.add(name);

    SplitMix64 rng(11);
    for (int i = 0; i < 256; ++i) {
        const std::uint64_t key = rng.next_u64();
        const std::vector<std::string> order = ring.owners(key, 3);
        ASSERT_EQ(order.size(), 3u);
        EXPECT_EQ(order[0], *ring.pick(key));

        // The fallback for a failed owner is the next distinct shard in
        // ring order — the same answer owners() gives, every time.
        const auto fallback = ring.pick_if(
            key, [&](const std::string& s) { return s != order[0]; });
        ASSERT_TRUE(fallback.has_value());
        EXPECT_EQ(*fallback, order[1]);

        EXPECT_FALSE(
            ring.pick_if(key, [](const std::string&) { return false; })
                .has_value());
    }

    EXPECT_FALSE(cluster::HashRing{}.pick(0).has_value());
}

TEST(HashRing, InsertionOrderDoesNotChangeTheRing) {
    cluster::HashRing forward;
    for (const char* name : {"a", "b", "c", "d"}) forward.add(name);
    cluster::HashRing backward;
    for (const char* name : {"d", "c", "b", "a"}) backward.add(name);

    SplitMix64 rng(23);
    for (int i = 0; i < 1024; ++i) {
        const std::uint64_t key = rng.next_u64();
        EXPECT_EQ(*forward.pick(key), *backward.pick(key));
    }
}

// ----------------------------------------------------------------- backoff ----

TEST(Backoff, JitterStaysInWindowAndTheServerHintOverrides) {
    cluster::BackoffPolicy policy; // base 50 ms, cap 2000 ms
    SplitMix64 rng(42);
    for (int attempt = 0; attempt < 8; ++attempt) {
        long long window = policy.base_ms << attempt;
        window = std::min(window, policy.max_ms);
        const long long delay = policy.delay_ms(attempt, rng);
        EXPECT_GE(delay, window / 2) << "attempt " << attempt;
        EXPECT_LE(delay, window) << "attempt " << attempt;
    }

    // A server retry_after_ms hint replaces the exponential window.
    for (int i = 0; i < 32; ++i) {
        const long long delay = policy.delay_ms(0, rng, /*hint_ms=*/400);
        EXPECT_GE(delay, 200);
        EXPECT_LE(delay, 400);
    }

    // Same seed, same jitter sequence: retries are replayable.
    SplitMix64 one(9), two(9);
    for (int attempt = 0; attempt < 6; ++attempt)
        EXPECT_EQ(policy.delay_ms(attempt, one),
                  policy.delay_ms(attempt, two));
}

// -------------------------------------------------------------- shard spec ----

TEST(ShardSpec, ParsesEndpointsAndRejectsMalformedSpecs) {
    std::string error;
    auto tcp = cluster::parse_shard_spec("a=127.0.0.1:4100", &error);
    ASSERT_TRUE(tcp.has_value()) << error;
    EXPECT_EQ(tcp->name, "a");
    EXPECT_EQ(tcp->endpoint.kind, net::Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp->endpoint.host, "127.0.0.1");
    EXPECT_EQ(tcp->endpoint.port, 4100);

    auto unix_spec = cluster::parse_shard_spec("b=unix:/tmp/b.sock", &error);
    ASSERT_TRUE(unix_spec.has_value()) << error;
    EXPECT_EQ(unix_spec->name, "b");
    EXPECT_EQ(unix_spec->endpoint.kind, net::Endpoint::Kind::Unix);
    EXPECT_EQ(unix_spec->endpoint.path, "/tmp/b.sock");

    for (const char* bad : {"noequals", "=endpoint", "name="}) {
        error.clear();
        EXPECT_FALSE(cluster::parse_shard_spec(bad, &error).has_value())
            << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    // A well-formed spec whose endpoint is malformed fails endpoint-side.
    EXPECT_FALSE(
        cluster::parse_shard_spec("a=127.0.0.1:99999", &error).has_value());
}

// ------------------------------------------------------------- router e2e ----

/// Scratch directory for one cluster test, removed on destruction.
struct ScratchDir {
    fs::path path;
    explicit ScratchDir(const std::string& name) {
        path = fs::path(testing::TempDir()) /
               ("psaflow-cluster-" + name + "-" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/// One framed request/response round trip against a Unix endpoint.
json::Value round_trip(const std::string& socket_path,
                       const std::string& request_json) {
    std::string error;
    net::Fd conn = net::connect_unix(socket_path, &error);
    EXPECT_TRUE(conn.valid()) << error;
    if (!conn.valid()) return json::Value::null();
    EXPECT_TRUE(net::write_frame(conn.get(), request_json));
    std::string payload;
    EXPECT_EQ(net::read_frame(conn.get(), payload), net::FrameStatus::Ok);
    auto doc = json::parse(payload, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return doc.has_value() ? *doc : json::Value::null();
}

/// Two in-process psaflowd shards ("a", "b") on Unix sockets behind a live
/// Router on a third socket — the whole fleet in one address space.
struct ClusterFixture {
    ScratchDir dir;
    std::unique_ptr<serve::Daemon> shard_a;
    std::unique_ptr<serve::Daemon> shard_b;
    std::unique_ptr<cluster::Router> router;
    std::string router_socket;
    std::thread run_a, run_b, run_router;

    explicit ClusterFixture(const std::string& name) : dir(name) {
        shard_a = make_shard("a");
        shard_b = make_shard("b");
    }

    std::unique_ptr<serve::Daemon> make_shard(const std::string& name) {
        serve::DaemonOptions options;
        options.socket_path = (dir.path / (name + ".sock")).string();
        options.shard_name = name;
        options.out_root = (dir.path / ("out-" + name)).string();
        options.cache_dir = (dir.path / "cache").string();
        options.enable_test_endpoints = true;
        return std::make_unique<serve::Daemon>(std::move(options));
    }

    void start(cluster::RouterOptions options = {}) {
        auto error = shard_a->start();
        ASSERT_FALSE(error.has_value()) << *error;
        error = shard_b->start();
        ASSERT_FALSE(error.has_value()) << *error;
        run_a = std::thread([this] { shard_a->run(); });
        run_b = std::thread([this] { shard_b->run(); });

        router_socket = (dir.path / "router.sock").string();
        options.socket_path = router_socket;
        std::string spec_error;
        for (const auto* daemon : {shard_a.get(), shard_b.get()}) {
            auto shard = cluster::parse_shard_spec(
                daemon->options().shard_name + "=unix:" +
                    daemon->options().socket_path,
                &spec_error);
            ASSERT_TRUE(shard.has_value()) << spec_error;
            options.shards.push_back(std::move(*shard));
        }
        if (options.health_interval_ms == 500)
            options.health_interval_ms = 100; // tests want fast detection
        router = std::make_unique<cluster::Router>(std::move(options));
        error = router->start();
        ASSERT_FALSE(error.has_value()) << *error;
        run_router = std::thread([this] { router->run(); });
    }

    void stop_shard(std::unique_ptr<serve::Daemon>& daemon,
                    std::thread& runner) {
        if (daemon) daemon->notify_shutdown();
        if (runner.joinable()) runner.join();
    }

    ~ClusterFixture() {
        if (router) router->notify_shutdown();
        if (run_router.joinable()) run_router.join();
        stop_shard(shard_a, run_a);
        stop_shard(shard_b, run_b);
    }
};

/// The shard name owning `app`'s affinity digest under `router`.
std::string owner_of(cluster::Router& router, const std::string& app) {
    serve::CompileRequest request;
    request.app = app;
    auto owner = router.route_key(serve::affinity_digest(request));
    EXPECT_TRUE(owner.has_value());
    return owner.value_or("");
}

/// All regular files under `root`, relative paths, sorted.
std::vector<fs::path> files_under(const fs::path& root) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file())
            files.push_back(fs::relative(entry.path(), root));
    std::sort(files.begin(), files.end());
    return files;
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string compile_json(const std::string& app, const fs::path& out) {
    return R"({"type":"compile","app":")" + app + R"(","out":")" +
           out.string() + R"("})";
}

TEST(Router, RoutedCompilesAreByteIdenticalToDirectOnes) {
    ClusterFixture fleet("identity");
    fleet.start();

    // Compile once through the router and once directly against the shard
    // the ring owns the module on; the artifacts must match byte for byte
    // (same executor, and the router relays responses verbatim).
    const std::string app = "nbody";
    const std::string owner = owner_of(*fleet.router, app);
    serve::Daemon& direct =
        owner == "a" ? *fleet.shard_a : *fleet.shard_b;

    const fs::path routed_out = fleet.dir.path / "routed";
    const fs::path direct_out = fleet.dir.path / "direct";
    const json::Value routed = round_trip(
        fleet.router_socket, compile_json(app, routed_out));
    const json::Value via_shard = round_trip(
        direct.options().socket_path, compile_json(app, direct_out));

    auto parsed_routed = serve::parse_response(routed);
    auto parsed_direct = serve::parse_response(via_shard);
    ASSERT_TRUE(parsed_routed.has_value() && parsed_routed->ok)
        << json::dump(routed);
    ASSERT_TRUE(parsed_direct.has_value() && parsed_direct->ok)
        << json::dump(via_shard);
    EXPECT_DOUBLE_EQ(routed.find("best_speedup")->number_value,
                     via_shard.find("best_speedup")->number_value);
    EXPECT_DOUBLE_EQ(routed.find("design_count")->number_value,
                     via_shard.find("design_count")->number_value);

    const std::vector<fs::path> routed_files = files_under(routed_out);
    ASSERT_FALSE(routed_files.empty());
    ASSERT_EQ(routed_files, files_under(direct_out));
    for (const fs::path& file : routed_files)
        EXPECT_EQ(slurp(routed_out / file), slurp(direct_out / file))
            << file;

    // The request really went through the ring owner.
    for (const cluster::ShardView& view : fleet.router->shard_views()) {
        if (view.name == owner) {
            EXPECT_GE(view.routed, 1u);
        }
    }
}

TEST(Router, DeeplyNestedFrameIsABadRequestAndTheFleetKeepsServing) {
    ClusterFixture fleet("nesting");
    fleet.start();

    // 2 MB of '[' is far below the frame cap, but overflows the stack of
    // a recursive JSON parser without a depth cap, in router and shard.
    const std::string hostile(2u << 20, '[');
    for (const std::string& socket :
         {fleet.router_socket, fleet.shard_a->options().socket_path}) {
        SCOPED_TRACE(socket);
        const auto view = serve::parse_response(round_trip(socket, hostile));
        ASSERT_TRUE(view.has_value());
        EXPECT_EQ(view->error_kind, serve::ErrorKind::BadRequest);

        const json::Value pong = round_trip(socket, R"({"type":"ping"})");
        const json::Value* ok = pong.find("ok");
        ASSERT_NE(ok, nullptr);
        EXPECT_TRUE(ok->bool_value);
    }
}

TEST(Router, DrainMovesKeysAwayAndRejoinRestoresThem) {
    ClusterFixture fleet("drain");
    fleet.start();

    const std::string app = "kmeans";
    const std::string owner = owner_of(*fleet.router, app);
    const std::string other = owner == "a" ? "b" : "a";

    // The wire admin request flips the drain bit...
    const json::Value drained = round_trip(
        fleet.router_socket,
        R"({"type":"drain","shard":")" + owner + R"(","draining":true})");
    ASSERT_NE(drained.find("ok"), nullptr);
    EXPECT_TRUE(drained.find("ok")->bool_value);

    // ...which deterministically hands the key to the fallback shard, and
    // a drained fleet-of-one-survivor still serves compiles.
    EXPECT_EQ(owner_of(*fleet.router, app), other);
    const json::Value response = round_trip(
        fleet.router_socket,
        compile_json(app, fleet.dir.path / "drained-out"));
    auto parsed = serve::parse_response(response);
    ASSERT_TRUE(parsed.has_value() && parsed->ok) << json::dump(response);

    // Unknown shard names are rejected, not ignored.
    const json::Value unknown = round_trip(
        fleet.router_socket,
        R"({"type":"drain","shard":"zz","draining":true})");
    auto unknown_parsed = serve::parse_response(unknown);
    ASSERT_TRUE(unknown_parsed.has_value());
    EXPECT_EQ(unknown_parsed->error_kind, serve::ErrorKind::BadRequest);

    // Undrain: the ring is immutable, so the key comes straight home.
    EXPECT_TRUE(fleet.router->set_drain(owner, false));
    EXPECT_EQ(owner_of(*fleet.router, app), owner);
}

TEST(Router, FailsOverWhenTheOwningShardDies) {
    cluster::RouterOptions options;
    options.health_interval_ms = 60000; // force the transport-failure path
    ClusterFixture fleet("failover");
    fleet.start(std::move(options));

    const std::string app = "bezier";
    const std::string owner = owner_of(*fleet.router, app);

    // Kill the owner outright — no drain, no health-check grace.
    if (owner == "a")
        fleet.stop_shard(fleet.shard_a, fleet.run_a);
    else
        fleet.stop_shard(fleet.shard_b, fleet.run_b);

    // The router hits the dead socket, marks the shard unhealthy, and
    // retries the survivor inside the same request.
    const json::Value response = round_trip(
        fleet.router_socket,
        compile_json(app, fleet.dir.path / "failover-out"));
    auto parsed = serve::parse_response(response);
    ASSERT_TRUE(parsed.has_value() && parsed->ok) << json::dump(response);

    bool owner_seen = false;
    for (const cluster::ShardView& view : fleet.router->shard_views()) {
        if (view.name != owner) continue;
        owner_seen = true;
        EXPECT_FALSE(view.healthy);
        EXPECT_GE(view.failures, 1u);
        EXPECT_GE(view.rerouted_away, 1u);
    }
    EXPECT_TRUE(owner_seen);
    EXPECT_NE(owner_of(*fleet.router, app), owner);
}

TEST(Router, AnswersStatsAndMetricsItself) {
    ClusterFixture fleet("stats");
    fleet.start();

    const json::Value pong =
        round_trip(fleet.router_socket, R"({"type":"ping"})");
    ASSERT_NE(pong.find("ok"), nullptr);
    EXPECT_TRUE(pong.find("ok")->bool_value);

    const json::Value stats =
        round_trip(fleet.router_socket, R"({"type":"stats"})");
    ASSERT_NE(stats.find("role"), nullptr);
    EXPECT_EQ(stats.find("role")->string_value, "router");
    const json::Value* shards = stats.find("shards");
    ASSERT_NE(shards, nullptr);
    EXPECT_EQ(shards->elements.size(), 2u);

    const json::Value metrics =
        round_trip(fleet.router_socket, R"({"type":"metrics"})");
    const json::Value* body = metrics.find("body");
    ASSERT_NE(body, nullptr);
    EXPECT_NE(body->string_value.find("psaflow_router_requests_total"),
              std::string::npos);
    EXPECT_NE(body->string_value.find("psaflow_router_shard_healthy"),
              std::string::npos);
}

// -------------------------------------------------------------- remote CAS ----

TEST(RemoteCas, PublishThenFetchRoundTripsOverTheWire) {
    ClusterFixture fleet("cas");
    fleet.start();

    std::string error;
    auto upstream = net::parse_endpoint(
        "unix:" + fleet.shard_a->options().socket_path, &error);
    ASSERT_TRUE(upstream.has_value()) << error;
    cluster::RemoteCasClient client(std::move(*upstream));

    // Binary-safe payload (NULs and high bytes ride base64 on the wire).
    const std::uint64_t key = 0x9e3779b97f4a7c15ULL;
    const std::string payload = {'\x00', '\x01', '\xfe', 'p', 's', 'a',
                                 '\n',   '\x00', '\x7f'};
    EXPECT_TRUE(client.publish(key, payload));
    const auto fetched = client.fetch(key);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, payload);

    // A key nobody published is a miss, not an error.
    EXPECT_FALSE(client.fetch(key ^ 1).has_value());

    // An unreachable upstream degrades to miss/dropped-publish — the
    // remote tier is an accelerator, never a correctness dependency.
    auto dead = net::parse_endpoint(
        "unix:" + (fleet.dir.path / "nobody.sock").string(), &error);
    ASSERT_TRUE(dead.has_value()) << error;
    cluster::RemoteCasClient unreachable(std::move(*dead));
    EXPECT_FALSE(unreachable.fetch(key).has_value());
    EXPECT_FALSE(unreachable.publish(key, payload));
}

} // namespace
} // namespace psaflow
