// psaflowd — the PSA-flow compile service.
//
// A long-running daemon that keeps warm FlowSession workers (and with them
// the in-process profile caches and the persistent content-addressed
// store) alive across requests, so clients pay milliseconds of socket
// round-trip instead of a cold process start per compile. Speaks
// length-prefixed JSON frames over a Unix-domain socket and/or TCP; the
// request schema is exactly a `psaflowc --batch` manifest entry (see
// serve/protocol.hpp and README "Serving").
//
//   psaflowd --socket /tmp/psaflow.sock --workers 4
//            --cache-dir .psaflow-cache --out designs/
//
// As a cluster shard behind psaflow-router (README "Scale-out serving"):
//
//   psaflowd --listen 127.0.0.1:7401 --shard-name a
//            --cas-upstream 127.0.0.1:7400 --cache-dir shard-a-cache
//
// SIGTERM/SIGINT drain gracefully: stop accepting, answer everything
// already admitted, remove the socket file, exit 0.
#include <iostream>
#include <memory>

#include "cluster/remote_cas.hpp"
#include "serve/server.hpp"
#include "support/cas/cas.hpp"
#include "support/cli.hpp"
#include "support/net.hpp"

int main(int argc, char** argv) {
    using namespace psaflow;

    const cli::Environment env = cli::load_environment();
    serve::DaemonOptions options;
    long long workers = 2;
    long long queue_depth = 16;
    cli::FlowFlags session_flags;
    session_flags.jobs = 1;

    std::string cas_upstream;

    cli::OptionParser parser(
        argv[0],
        {"[--socket <path>] [--listen <host:port>] [--shard-name <name>]\n"
         "      [--cas-upstream <endpoint>] [--workers <n>] "
         "[--queue-depth <n>]\n"
         "      [--deadline-ms <n>] [--recv-timeout-ms <n>] [--out <dir>]\n"
         "      [--jobs <n>] [--cache-dir <dir>] [--cache-max-mb <n>]\n"
         "      [--slo-ms <n>]"});
    parser.str("--socket", "<path>", "Unix-domain socket to listen on",
               &options.socket_path);
    parser.str("--listen", "<host:port>",
               "also listen on TCP (port 0 = ephemeral, printed on start)",
               &options.listen_tcp);
    parser.str("--shard-name", "<name>",
               "cluster shard identity; labels metrics with shard=<name>",
               &options.shard_name);
    parser.str("--cas-upstream", "<endpoint>",
               "remote CAS tier (peer shard or router); the disk cache "
               "becomes a read-through cache over it",
               &cas_upstream);
    parser.integer("--workers", "<n>", "warm flow workers (default 2)",
                   &workers, /*min=*/1);
    parser.integer("--queue-depth", "<n>",
                   "admission queue capacity (default 16)", &queue_depth,
                   /*min=*/1);
    parser.integer("--deadline-ms", "<n>",
                   "default per-request deadline (0 = none)",
                   &options.default_deadline_ms, /*min=*/0);
    parser.integer("--recv-timeout-ms", "<n>",
                   "mid-frame peer stall cap (default 5000)",
                   &options.recv_timeout_ms, /*min=*/0);
    parser.str("--out", "<dir>",
               "output root for request-relative paths (default designs)",
               &options.out_root);
    parser.integer("--jobs", "<n>",
                   "engine jobs per request (default 1)",
                   &session_flags.jobs, /*min=*/1);
    parser.str("--cache-dir", "<dir>",
               "persistent cache root (default PSAFLOW_CACHE_DIR)",
               &session_flags.cache_dir);
    parser.integer("--cache-max-mb", "<n>",
                   "persistent cache size cap (0 = env / default)",
                   &session_flags.cache_max_mb, /*min=*/0, cas::kMaxCacheMb);
    parser.integer("--slo-ms", "<n>",
                   "latency SLO for the flight recorder; slower requests "
                   "log a breach (0 = PSAFLOW_SLO_MS / off)",
                   &options.slo_ms, /*min=*/0);
    parser.flag("--enable-test-endpoints",
                "allow the test-only 'sleep' request type",
                &options.enable_test_endpoints);

    if (!parser.parse(argc, argv)) return 2;
    if (options.socket_path.empty() && options.listen_tcp.empty()) {
        std::cerr << parser.usage();
        return 2;
    }

    options.workers = static_cast<int>(workers);
    options.queue_depth = static_cast<std::size_t>(queue_depth);
    options.session = flow::session_options(session_flags, env);
    if (options.slo_ms == 0) options.slo_ms = env.slo_ms;
    options.flight_capacity = env.flight_capacity;

    serve::Daemon daemon(options);
    if (auto error = daemon.start()) {
        std::cerr << "psaflowd: " << *error << "\n";
        return 1;
    }

    // Remote-CAS wiring lives in the tool, not the serve library: serve's
    // own cas_get/cas_put handlers use only the local tier, so pointing
    // shards at each other (or at a router) can never recurse. Without a
    // local store there is nowhere to cache into, so no remote tier.
    if (!cas_upstream.empty()) {
        std::string error;
        auto endpoint = net::parse_endpoint(cas_upstream, &error);
        if (!endpoint.has_value()) {
            std::cerr << "psaflowd: --cas-upstream: " << error << "\n";
            return 2;
        }
        auto client = std::make_shared<cluster::RemoteCasClient>(
            std::move(*endpoint), options.recv_timeout_ms);
        if (cas::CasStore* store = daemon.session().store())
            store->set_remote(cluster::RemoteCasClient::fetch_hook(client),
                              cluster::RemoteCasClient::publish_hook(client));
    }

    daemon.front_end().shutdown_on_signals();

    // The resolved port matters when --listen asked for port 0; smoke
    // scripts scrape it from this line.
    std::cout << "psaflowd: serving on " << daemon.front_end().describe()
              << " with " << options.workers << " worker(s), queue depth "
              << options.queue_depth << "\n"
              << std::flush;
    daemon.run();

    const serve::DaemonCounters counters = daemon.counters();
    std::cout << "psaflowd: drained; " << counters.requests
              << " request(s), " << counters.completed << " completed, "
              << counters.deadline_exceeded << " deadline-exceeded, "
              << counters.rejected_overload << " rejected\n";
    return 0;
}
