// Cluster-layer tests: consistent-hash ring stability, failover and
// bounded-load picks, backoff jitter, shard specs, and an in-process
// two-shard fleet behind a live Router — byte-identity of routed versus
// direct designs, drain and rejoin, transport-failure failover, compile
// spills and CAS home routing under load, request validation, reader-thread
// reaping, the remote-CAS wire round trip, and flow results shared
// through a shard's upstream.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <latch>
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
#include "flow/manifest.hpp"
#include "flow/standard_flow.hpp"
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

TEST(HashRing, RingPositionsArePinned) {
    // Every fleet's routing follows from these points: a change to the
    // hash (its FNV offset basis, the finaliser) moves every key to a new
    // owner while each distribution test above still passes.
    EXPECT_EQ(cluster::ring_hash(""), 0x552d3fb62b3c344fULL);
    EXPECT_EQ(cluster::ring_hash("a#0"), 0x5d6d62374d76c7f0ULL);
    EXPECT_EQ(cluster::ring_hash("s0#0"), 0xb234dc5c864e2b62ULL);
    EXPECT_EQ(cluster::ring_hash("s1#63"), 0x77868677e7464409ULL);
    EXPECT_EQ(cluster::ring_hash("shard-a#1"), 0x769353ddb58a055fULL);
}

// ------------------------------------------------------ bounded-load pick ----

/// A three-shard ring and one key's owner order on it.
struct BoundedRing {
    cluster::HashRing ring;
    std::uint64_t key = 0x5eed5eed5eed5eedULL;
    std::vector<std::string> order; ///< owner, successor, last
    BoundedRing() {
        for (const char* name : {"a", "b", "c"}) ring.add(name);
        order = ring.owners(key, 3);
    }
};

TEST(HashRing, BoundedPickKeepsAnOwnerUnderItsBound) {
    BoundedRing r;
    ASSERT_EQ(r.order.size(), 3u);
    // An idle fleet, and an evenly loaded one (bound ⌈4/3⌉ = 2 > 1),
    // route exactly as plain consistent hashing does.
    for (const std::uint64_t load : {0u, 1u}) {
        const std::map<std::string, std::uint64_t> loads = {
            {"a", load}, {"b", load}, {"c", load}};
        const auto pick = r.ring.pick_bounded(r.key, loads, 1.0);
        ASSERT_TRUE(pick.has_value());
        EXPECT_EQ(pick->shard, r.order[0]);
        EXPECT_EQ(pick->owner, r.order[0]);
        EXPECT_FALSE(pick->spilled());
    }
}

TEST(HashRing, BoundedPickSpillsAnOwnerAtItsBoundToItsSuccessor) {
    BoundedRing r;
    // T = 2 over n = 3: bound ⌈3/3⌉ = 1, and the owner has 2.
    std::map<std::string, std::uint64_t> loads = {
        {r.order[0], 2}, {r.order[1], 0}, {r.order[2], 0}};
    auto pick = r.ring.pick_bounded(r.key, loads, 1.0);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->shard, r.order[1]);
    EXPECT_EQ(pick->owner, r.order[0]);
    EXPECT_TRUE(pick->spilled());

    // Successor at the bound too (T = 4, bound 2): the walk goes on.
    loads[r.order[1]] = 2;
    pick = r.ring.pick_bounded(r.key, loads, 1.0);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->shard, r.order[2]);
    EXPECT_EQ(pick->owner, r.order[0]);
}

TEST(HashRing, BoundedPickNeverChoosesAnUnusableShard) {
    cluster::HashRing ring;
    for (const char* name : {"a", "b", "c"}) ring.add(name);
    // "a" is drained or unhealthy: absent from the loads, so never chosen
    // however idle it would be and however loaded the others are.
    SplitMix64 rng(5);
    for (int i = 0; i < 512; ++i) {
        const std::uint64_t key = rng.next_u64();
        const std::map<std::string, std::uint64_t> loads = {
            {"b", rng.next_u64() % 8}, {"c", rng.next_u64() % 8}};
        const auto pick = ring.pick_bounded(key, loads, 1.0);
        ASSERT_TRUE(pick.has_value());
        EXPECT_NE(pick->shard, "a");
        EXPECT_NE(pick->owner, "a");
        EXPECT_EQ(pick->owner, *ring.pick_if(key, [](const std::string& s) {
            return s != "a";
        }));
    }
    EXPECT_FALSE(ring.pick_bounded(1, {}, 1.0).has_value());
}

TEST(HashRing, BoundedPickSendsEverythingToASingleUsableShard) {
    cluster::HashRing ring;
    for (const char* name : {"a", "b", "c"}) ring.add(name);
    SplitMix64 rng(9);
    for (int i = 0; i < 256; ++i) {
        const auto pick = ring.pick_bounded(
            rng.next_u64(), {{"b", std::uint64_t(i)}}, 1.0);
        ASSERT_TRUE(pick.has_value());
        EXPECT_EQ(pick->shard, "b");
        EXPECT_FALSE(pick->spilled());
    }
}

TEST(HashRing, BoundedPickIsDeterministicAndHoldsTheBound) {
    cluster::HashRing forward;
    for (const char* name : {"a", "b", "c", "d"}) forward.add(name);
    cluster::HashRing backward;
    for (const char* name : {"d", "c", "b", "a"}) backward.add(name);

    SplitMix64 rng(31);
    for (int i = 0; i < 1024; ++i) {
        const std::uint64_t key = rng.next_u64();
        std::map<std::string, std::uint64_t> loads;
        std::uint64_t total = 0;
        for (const char* name : {"a", "b", "c", "d"}) {
            loads[name] = rng.next_u64() % 6;
            total += loads[name];
        }
        // Same ring, key and loads: the same choice, on every router.
        const auto pick = forward.pick_bounded(key, loads, 1.0);
        const auto again = backward.pick_bounded(key, loads, 1.0);
        ASSERT_TRUE(pick.has_value() && again.has_value());
        EXPECT_EQ(pick->shard, again->shard);
        EXPECT_EQ(pick->owner, again->owner);
        EXPECT_EQ(pick->owner, *forward.pick(key));
        // And the choice is under ⌈(T+1)/n⌉.
        const std::uint64_t bound = (total + 1 + 3) / 4;
        EXPECT_LT(loads[pick->shard], bound);
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
/// Router on a third socket — the whole fleet in one address space. The
/// shards share one cache directory unless `own_caches` gives each its own.
struct ClusterFixture {
    ScratchDir dir;
    bool own_caches;
    std::unique_ptr<serve::Daemon> shard_a;
    std::unique_ptr<serve::Daemon> shard_b;
    std::unique_ptr<cluster::Router> router;
    std::string router_socket;
    std::thread run_a, run_b, run_router;

    explicit ClusterFixture(const std::string& name, bool own_caches = false)
        : dir(name), own_caches(own_caches) {
        shard_a = make_shard("a");
        shard_b = make_shard("b");
    }

    std::unique_ptr<serve::Daemon> make_shard(const std::string& name) {
        serve::DaemonOptions options;
        options.socket_path = (dir.path / (name + ".sock")).string();
        options.shard_name = name;
        options.out_root = (dir.path / ("out-" + name)).string();
        options.session.cache_dir =
            (dir.path / (own_caches ? "cache-" + name : "cache")).string();
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

TEST(Router, ShardsInOneProcessShareNoCache) {
    // Each shard's session owns its profile cache and store, so the same
    // compile on a second shard of the same process starts cold: no
    // profile-cache hit, no flow-result hit. (kmeans' informed flow has
    // no profile hits of its own when cold.)
    ClusterFixture fleet("isolation", /*own_caches=*/true);
    fleet.start();
    const std::string app = "kmeans";
    const std::string first = owner_of(*fleet.router, app);
    const std::string second = first == "a" ? "b" : "a";
    serve::Daemon& shard_first = first == "a" ? *fleet.shard_a : *fleet.shard_b;
    serve::Daemon& shard_second =
        first == "a" ? *fleet.shard_b : *fleet.shard_a;

    const auto compile_via_router = [&](const std::string& out) {
        const json::Value response = round_trip(
            fleet.router_socket, compile_json(app, fleet.dir.path / out));
        auto parsed = serve::parse_response(response);
        ASSERT_TRUE(parsed.has_value() && parsed->ok) << json::dump(response);
    };
    compile_via_router("first");
    ASSERT_TRUE(fleet.router->set_drain(first, true));
    ASSERT_EQ(owner_of(*fleet.router, app), second);
    compile_via_router("second");

    const auto counter = [](serve::Daemon& shard, const char* name) {
        const json::Value stats = shard.stats_json();
        const json::Value* value = stats.find("counters")->find(name);
        return value != nullptr ? value->number_value : 0.0;
    };
    EXPECT_EQ(counter(shard_first, "flow_cache.misses"), 1.0);
    EXPECT_EQ(counter(shard_second, "flow_cache.misses"), 1.0);
    EXPECT_EQ(counter(shard_second, "flow_cache.hits"), 0.0);
    EXPECT_EQ(counter(shard_second, "profile_cache.hits"), 0.0);
    EXPECT_EQ(counter(shard_second, "profile_cache.disk_hits"), 0.0);
    EXPECT_EQ(counter(shard_second, "artifact_cache.hits"), 0.0);
    EXPECT_EQ(counter(shard_second, "profile_cache.misses"),
              counter(shard_first, "profile_cache.misses"));
    EXPECT_GT(counter(shard_second, "interp.runs"), 0.0);
}

TEST(Router, HealthPingsAreNotShardRequests) {
    // The router pings every shard each health interval; a shard tallies
    // those apart, so its request count follows client traffic, not
    // fleet uptime.
    ClusterFixture fleet("pings");
    fleet.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fleet.shard_a->counters().pings < 3 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(fleet.shard_a->counters().pings, 3u);
    EXPECT_EQ(fleet.shard_a->counters().requests, 0u);

    const json::Value stats = round_trip(fleet.shard_a->options().socket_path,
                                         R"({"type":"stats"})");
    const json::Value* requests = stats.find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->find("received")->number_value, 1.0); // this stats
    EXPECT_GE(requests->find("pings")->number_value, 3.0);
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

TEST(Router, ValidatesEveryRequestLikeTheDaemon) {
    ClusterFixture fleet("validation");
    fleet.start();
    const fs::path manifest = fleet.dir.path / "std.json";
    {
        std::ofstream file(manifest);
        file << json::dump(
            flow::to_manifest(flow::standard_flow(flow::Mode::Informed)));
    }
    const std::string flow_path =
        R"({"type":"compile","app":"nbody","flow":")" + manifest.string() +
        R"("})";
    // Requests the router answers itself and requests it relays must both
    // meet the daemon's parser; none of these reaches a shard.
    for (const std::string& request :
         {std::string(R"({"schema_version":2,"type":"ping"})"),
          std::string(R"({"schema_version":2,"type":"stats"})"),
          std::string(R"({"type":"logs","max":-1})"),
          std::string(R"({"type":"flight","max":-1})"),
          std::string(R"({"type":7,"app":"nbody"})"), flow_path}) {
        SCOPED_TRACE(request);
        const auto view =
            serve::parse_response(round_trip(fleet.router_socket, request));
        ASSERT_TRUE(view.has_value());
        EXPECT_FALSE(view->ok);
        EXPECT_EQ(view->error_kind, serve::ErrorKind::BadRequest);
    }
    for (const cluster::ShardView& view : fleet.router->shard_views())
        EXPECT_EQ(view.routed, 0u) << view.name;

    // Both metrics endpoints speak the daemon's content type.
    for (const char* type : {"metrics", "cluster_metrics"}) {
        const json::Value metrics = round_trip(
            fleet.router_socket,
            std::string(R"({"type":")") + type + R"("})");
        const json::Value* content_type = metrics.find("content_type");
        ASSERT_NE(content_type, nullptr) << type;
        EXPECT_EQ(content_type->string_value, "text/plain; version=0.0.4")
            << type;
    }
}

TEST(Router, StalledClientMidFrameGetsATornFrameReply) {
    // A client that stops mid-frame is answered and closed once the
    // receive timeout passes, so its reader cannot hold up the drain.
    ClusterFixture fleet("stall");
    cluster::RouterOptions options;
    options.recv_timeout_ms = 200;
    fleet.start(options);

    std::string error;
    net::Fd conn = net::connect_unix(fleet.router_socket, &error);
    ASSERT_TRUE(conn.valid()) << error;
    const char header_start[3] = {'F', 'A', 'S'}; // 3 of 8 header bytes
    ASSERT_TRUE(net::write_exact(conn.get(), header_start,
                                 sizeof header_start));
    net::set_recv_timeout(conn.get(), 3000);
    std::string payload;
    ASSERT_EQ(net::read_frame(conn.get(), payload), net::FrameStatus::Ok);
    const auto doc = json::parse(payload);
    ASSERT_TRUE(doc.has_value());
    const auto view = serve::parse_response(*doc);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->error_kind, serve::ErrorKind::BadRequest);
    EXPECT_EQ(view->error.rfind("malformed frame", 0), 0u) << view->error;
}

TEST(Router, ConcurrentColdCompilesOfOneAppSpillToTheOtherShard) {
    ClusterFixture fleet("spill");
    fleet.start();

    // Six cold compiles of one module at once: the owner takes them while
    // it is under ⌈(T+1)/2⌉ in flight, the rest spill to the other shard.
    const std::string app = "kmeans";
    const std::string owner = owner_of(*fleet.router, app);
    constexpr int kClients = 6;
    std::latch go(kClients);
    std::vector<std::thread> clients;
    std::vector<json::Value> responses(kClients);
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            go.arrive_and_wait();
            responses[i] = round_trip(
                fleet.router_socket,
                compile_json(app, fleet.dir.path / ("spill-" +
                                                    std::to_string(i))));
        });
    for (std::thread& client : clients) client.join();

    std::uint64_t spills = 0;
    for (const cluster::ShardView& view : fleet.router->shard_views()) {
        EXPECT_GE(view.routed, 1u) << view.name << " served none";
        spills += view.spills;
        if (view.name != owner) {
            EXPECT_EQ(view.spills, 0u);
        }
    }
    EXPECT_GE(spills, 1u);
    const json::Value stats =
        round_trip(fleet.router_socket, R"({"type":"stats"})");
    for (const json::Value& shard : stats.find("shards")->elements)
        EXPECT_NE(shard.find("spills"), nullptr);

    // Whichever shard served it, every design matches the owner's.
    serve::Daemon& direct = owner == "a" ? *fleet.shard_a : *fleet.shard_b;
    const fs::path direct_out = fleet.dir.path / "direct";
    const auto direct_view = serve::parse_response(round_trip(
        direct.options().socket_path, compile_json(app, direct_out)));
    ASSERT_TRUE(direct_view.has_value() && direct_view->ok);
    const std::vector<fs::path> files = files_under(direct_out);
    ASSERT_FALSE(files.empty());
    for (int i = 0; i < kClients; ++i) {
        SCOPED_TRACE(i);
        const auto view = serve::parse_response(responses[i]);
        ASSERT_TRUE(view.has_value() && view->ok) << json::dump(responses[i]);
        const fs::path out = fleet.dir.path / ("spill-" + std::to_string(i));
        ASSERT_EQ(files_under(out), files);
        for (const fs::path& file : files)
            EXPECT_EQ(slurp(out / file), slurp(direct_out / file)) << file;
    }
}

TEST(Router, CasRequestsKeepTheirHomeShardUnderLoad) {
    ClusterFixture fleet("cas-home");
    fleet.start();

    // Load the fleet unevenly: three sleeps in flight split 3:0 or 2:1.
    constexpr int kSleeps = 3;
    std::vector<std::thread> sleepers;
    for (int i = 0; i < kSleeps; ++i)
        sleepers.emplace_back([&] {
            round_trip(fleet.router_socket, R"({"type":"sleep","ms":1500})");
        });
    std::map<std::string, std::uint64_t> loads;
    for (int poll = 0; poll < 500; ++poll) {
        loads.clear();
        std::uint64_t total = 0;
        for (const cluster::ShardView& view : fleet.router->shard_views()) {
            loads[view.name] = view.in_flight;
            total += view.in_flight;
        }
        if (total == kSleeps) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(loads["a"] + loads["b"], std::uint64_t(kSleeps));
    const std::string home = loads["a"] > loads["b"] ? "a" : "b";
    const std::string other = home == "a" ? "b" : "a";

    // A key homed on the loaded shard, which a compile would spill: the
    // router's ring is rebuilt here from the same names and vnodes.
    cluster::HashRing ring;
    ring.add("a");
    ring.add("b");
    SplitMix64 rng(3);
    std::uint64_t key = rng.next_u64();
    while (*ring.pick(key) != home) key = rng.next_u64();
    ASSERT_EQ(*fleet.router->route_key(key), home);
    ASSERT_TRUE(ring.pick_bounded(key, loads, 1.0)->spilled());

    serve::Daemon& home_shard = home == "a" ? *fleet.shard_a : *fleet.shard_b;
    serve::Daemon& other_shard = home == "a" ? *fleet.shard_b : *fleet.shard_a;
    const serve::DaemonCounters home_before = home_shard.counters();
    const serve::DaemonCounters other_before = other_shard.counters();

    std::string error;
    auto endpoint = net::parse_endpoint("unix:" + fleet.router_socket, &error);
    ASSERT_TRUE(endpoint.has_value()) << error;
    cluster::RemoteCasClient client(std::move(*endpoint));
    EXPECT_TRUE(client.publish(key, "artifact"));
    EXPECT_EQ(client.fetch(key).value_or(""), "artifact");

    EXPECT_EQ(home_shard.counters().cas_puts, home_before.cas_puts + 1);
    EXPECT_EQ(home_shard.counters().cas_gets, home_before.cas_gets + 1);
    EXPECT_EQ(other_shard.counters().cas_puts, other_before.cas_puts);
    EXPECT_EQ(other_shard.counters().cas_gets, other_before.cas_gets);
    for (const cluster::ShardView& view : fleet.router->shard_views())
        EXPECT_EQ(view.spills, 0u) << view.name;
    for (std::thread& sleeper : sleepers) sleeper.join();
}

TEST(Router, ReaderThreadsOfClosedConnectionsAreJoined) {
    ClusterFixture fleet("readers");
    fleet.start();

    // Each finished connection's reader is joined when a later connection
    // arrives, so sequential clients never pile up threads.
    constexpr int kConnections = 64;
    for (int i = 0; i < kConnections; ++i) {
        round_trip(fleet.router_socket, R"({"type":"ping"})");
        round_trip(fleet.shard_a->options().socket_path, R"({"type":"ping"})");
    }
    EXPECT_LE(fleet.router->reader_threads(), 16u);
    EXPECT_LE(fleet.shard_a->reader_threads(), 16u);
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

TEST(RemoteCas, FlowResultsCrossShardsThroughTheUpstream) {
    // Shard b's store reads through and publishes to shard a's over the
    // wire, as `psaflowd --cas-upstream` wires it; each has its own disk.
    ClusterFixture fleet("flow-upstream", /*own_caches=*/true);
    std::string error;
    auto upstream = net::parse_endpoint(
        "unix:" + fleet.shard_a->options().socket_path, &error);
    ASSERT_TRUE(upstream.has_value()) << error;
    auto client =
        std::make_shared<cluster::RemoteCasClient>(std::move(*upstream));
    fleet.shard_b->session().store()->set_remote(
        cluster::RemoteCasClient::fetch_hook(client),
        cluster::RemoteCasClient::publish_hook(client));
    fleet.start();

    const auto counter = [](serve::Daemon& shard, const char* name) {
        const json::Value stats = shard.stats_json();
        const json::Value* value = stats.find("counters")->find(name);
        return value != nullptr ? value->number_value : 0.0;
    };
    const auto compile_on = [&](serve::Daemon& shard, const std::string& app,
                                const std::string& out) {
        const json::Value response =
            round_trip(shard.options().socket_path,
                       compile_json(app, fleet.dir.path / out));
        auto parsed = serve::parse_response(response);
        ASSERT_TRUE(parsed.has_value() && parsed->ok) << json::dump(response);
    };
    const auto expect_same_designs = [&](const std::string& left,
                                         const std::string& right) {
        const std::vector<fs::path> files = files_under(fleet.dir.path / left);
        ASSERT_FALSE(files.empty());
        ASSERT_EQ(files, files_under(fleet.dir.path / right));
        for (const fs::path& file : files)
            EXPECT_EQ(slurp(fleet.dir.path / left / file),
                      slurp(fleet.dir.path / right / file))
                << file;
    };
    serve::Daemon& a = *fleet.shard_a;
    serve::Daemon& b = *fleet.shard_b;

    // a computes; b's compile is a remote flow-result hit that runs
    // nothing.
    compile_on(a, "bezier", "a-first");
    compile_on(b, "bezier", "b-second");
    EXPECT_EQ(counter(b, "flow_cache.hits"), 1.0);
    EXPECT_EQ(counter(b, "cas.remote_hits"), 1.0);
    EXPECT_EQ(counter(b, "interp.runs"), 0.0);
    expect_same_designs("a-first", "b-second");

    // b computes and publishes; a's compile is a local flow-result hit.
    compile_on(b, "kmeans", "b-first");
    const double a_runs = counter(a, "interp.runs");
    compile_on(a, "kmeans", "a-second");
    EXPECT_EQ(counter(a, "flow_cache.hits"), 1.0);
    EXPECT_EQ(counter(a, "interp.runs"), a_runs);
    expect_same_designs("b-first", "a-second");
}

} // namespace
} // namespace psaflow
