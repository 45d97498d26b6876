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
#include <iostream>

#include "cluster/router.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
    using namespace psaflow;

    const cli::Environment env = cli::load_environment();
    cluster::RouterOptions options;
    options.slo_ms = env.slo_ms;
    options.flight_capacity = env.flight_capacity;
    std::vector<std::string> shard_specs;

    cli::OptionParser parser(
        argv[0],
        {"[--socket <path>] [--listen <host:port>] --shard <name=endpoint>\n"
         "      [--shard <name=endpoint> ...] [--health-interval-ms <n>]\n"
         "      [--recv-timeout-ms <n>]"});
    parser.str("--socket", "<path>", "Unix-domain socket to listen on",
               &options.socket_path);
    parser.str("--listen", "<host:port>",
               "also listen on TCP (port 0 = ephemeral, printed on start)",
               &options.listen_tcp);
    parser.multi("--shard", "<name=endpoint>",
                 "a psaflowd shard (repeatable); endpoint is host:port or "
                 "a socket path",
                 &shard_specs);
    parser.integer("--health-interval-ms", "<n>",
                   "shard ping interval (default 500)",
                   &options.health_interval_ms, /*min=*/1);
    parser.integer("--recv-timeout-ms", "<n>",
                   "stall cap on a client mid-frame and on a shard's "
                   "response (default 30000)",
                   &options.recv_timeout_ms, /*min=*/0);

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

    cluster::Router router(options);
    if (auto error = router.start()) {
        std::cerr << "psaflow-router: " << *error << "\n";
        return 1;
    }

    router.front_end().shutdown_on_signals();

    std::cout << "psaflow-router: serving on " << router.front_end().describe()
              << " for " << options.shards.size() << " shard(s)\n"
              << std::flush;
    router.run();

    std::cout << "psaflow-router: drained\n";
    return 0;
}
