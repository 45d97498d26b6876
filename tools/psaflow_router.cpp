// psaflow-router — consistent-hash front door for psaflowd shards.
//
// Clients point at the router exactly as they would at a daemon (same
// framed wire protocol, byte-identical responses); the router spreads
// compile requests across shards by module-content digest so repeat
// compiles keep hitting warm caches, consistent-hashes cas_get/cas_put
// onto home shards (a shared artifact tier when shards set
// --cas-upstream to the router), health-checks every shard, fails over
// with jittered backoff, and supports graceful drain/rejoin:
//
//   psaflow-router --socket /tmp/psaflow.sock
//       --shard a=127.0.0.1:7401 --shard b=127.0.0.1:7402
//
//   psaflow-client --socket /tmp/psaflow.sock --app nbody   # unchanged
//
// Drain shard a for a rolling restart (and rejoin with draining=false):
//
//   {"type":"drain","shard":"a","draining":true}   # any frame client
//
// SIGTERM/SIGINT shut down gracefully (in-flight relays finish).
#include <csignal>
#include <iostream>

#include "cluster/router.hpp"
#include "support/cli.hpp"

namespace {

psaflow::cluster::Router* g_router = nullptr;

void handle_signal(int) {
    if (g_router != nullptr) g_router->notify_shutdown();
}

} // namespace

int main(int argc, char** argv) {
    using namespace psaflow;

    cluster::RouterOptions options;
    std::vector<std::string> shard_specs;
    long long vnodes = static_cast<long long>(cluster::HashRing::kDefaultVnodes);
    long long health_interval_ms = 500;
    long long max_attempts = 3;
    long long backoff_base_ms = 50;
    long long backoff_max_ms = 2000;
    long long recv_timeout_ms = 30000;
    long long seed = 0;

    cli::OptionParser parser(
        argv[0],
        {"[--socket <path>] [--listen <host:port>] --shard <name=endpoint>\n"
         "      [--shard <name=endpoint> ...] [--vnodes <n>]\n"
         "      [--health-interval-ms <n>] [--max-attempts <n>]\n"
         "      [--backoff-base-ms <n>] [--backoff-max-ms <n>]\n"
         "      [--recv-timeout-ms <n>] [--seed <n>]"});
    parser.str("--socket", "<path>", "Unix-domain socket to listen on",
               &options.socket_path);
    parser.str("--listen", "<host:port>",
               "also listen on TCP (port 0 = ephemeral, printed on start)",
               &options.listen_tcp);
    parser.multi("--shard", "<name=endpoint>",
                 "a psaflowd shard (repeatable); endpoint is host:port or "
                 "a socket path",
                 &shard_specs);
    parser.integer("--vnodes", "<n>",
                   "ring points per shard (default 64)", &vnodes,
                   /*min=*/1);
    parser.integer("--health-interval-ms", "<n>",
                   "shard ping interval (default 500)", &health_interval_ms,
                   /*min=*/1);
    parser.integer("--max-attempts", "<n>",
                   "shards tried per request before giving up (default 3)",
                   &max_attempts, /*min=*/1);
    parser.integer("--backoff-base-ms", "<n>",
                   "failover backoff window for the first retry "
                   "(default 50)",
                   &backoff_base_ms, /*min=*/1);
    parser.integer("--backoff-max-ms", "<n>",
                   "failover backoff window cap (default 2000)",
                   &backoff_max_ms, /*min=*/1);
    parser.integer("--recv-timeout-ms", "<n>",
                   "shard response stall cap (default 30000)",
                   &recv_timeout_ms, /*min=*/0);
    parser.integer("--seed", "<n>",
                   "backoff jitter seed (0 = built-in default)", &seed,
                   /*min=*/0);

    if (!parser.parse(argc, argv)) return 2;
    if (shard_specs.empty() ||
        (options.socket_path.empty() && options.listen_tcp.empty())) {
        std::cerr << parser.usage();
        return 2;
    }
    for (const std::string& spec : shard_specs) {
        std::string error;
        auto config = cluster::parse_shard_spec(spec, &error);
        if (!config.has_value()) {
            std::cerr << "psaflow-router: " << error << "\n";
            return 2;
        }
        options.shards.push_back(std::move(*config));
    }
    options.vnodes = static_cast<std::size_t>(vnodes);
    options.health_interval_ms = health_interval_ms;
    options.retry.max_attempts = static_cast<int>(max_attempts);
    options.retry.base_ms = backoff_base_ms;
    options.retry.max_ms = backoff_max_ms;
    options.recv_timeout_ms = recv_timeout_ms;
    if (seed != 0) options.seed = static_cast<std::uint64_t>(seed);

    cluster::Router router(options);
    if (auto error = router.start()) {
        std::cerr << "psaflow-router: " << *error << "\n";
        return 1;
    }

    g_router = &router;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    std::cout << "psaflow-router: serving on ";
    if (!options.socket_path.empty()) std::cout << options.socket_path;
    if (!options.listen_tcp.empty()) {
        if (!options.socket_path.empty()) std::cout << " and ";
        std::cout << "tcp port " << router.tcp_port();
    }
    std::cout << " for " << options.shards.size() << " shard(s)\n"
              << std::flush;
    router.run();

    std::cout << "psaflow-router: drained\n";
    g_router = nullptr;
    return 0;
}
