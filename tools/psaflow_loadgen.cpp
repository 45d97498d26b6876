// psaflow-loadgen — deterministic load generator for psaflowd topologies.
//
// Drives a mixed warm/cold compile stream at a daemon or a router and
// reports client-observed throughput and latency plus server-side queue
// waits, as one JSON document (the raw material for BENCH_9.json):
//
//   psaflow-loadgen --connect 127.0.0.1:7400 --requests 10000
//       --concurrency 16 --warm-fraction 0.9 --seed 42 --label router4
//       --shard-stats 127.0.0.1:7401 --shard-stats 127.0.0.1:7402
//       --out run.json
//
// Workload model: a "warm" request repeats one of `--warm-pool` fixed
// (app, threshold_x) combinations, so every tier from the profile cache
// to the design-artifact cache hits; a "cold" request draws a globally
// unique threshold_x, forcing the flow (profiling, DSE) to actually run.
// All randomness comes from splitmix64 seeded by --seed, so two runs
// against different topologies replay the byte-identical request
// sequence — the comparison measures the topology, not the workload.
//
// Overload handling mirrors psaflow-client: overloaded responses retry
// with the server's retry_after hint jittered (cluster/retry.hpp) up to
// --max-attempts; exhausted budgets count as errors, never crashes.
//
// --sleep-ms <n> switches to an I/O-bound service-time model: every
// request is a test-only "sleep" that occupies a shard worker for <n> ms
// without burning CPU. Compiles are compute-bound, so on a single-core
// host a shard fleet can only tie a lone daemon on compile throughput;
// the sleep mode isolates what sharding actually multiplies — worker
// occupancy and queue capacity. Shards need --enable-test-endpoints.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/retry.hpp"
#include "serve/protocol.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/net.hpp"
#include "support/prng.hpp"

using namespace psaflow;

namespace {

struct RunConfig {
    net::Endpoint target;
    std::vector<std::string> apps;
    long long requests = 1000;
    long long concurrency = 8;
    double warm_fraction = 0.9;
    long long warm_pool = 8;
    std::uint64_t seed = 42;
    cluster::BackoffPolicy retry{50, 2000, 5};
    long long deadline_ms = 0;
    long long sleep_ms = 0; ///< > 0: sleep requests instead of compiles
};

struct WorkerTally {
    std::vector<std::uint64_t> latencies_us;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t retries = 0;
    std::uint64_t warm = 0;
    std::uint64_t cold = 0;
};

/// One request/response exchange on a fresh connection; false on any
/// transport failure.
bool exchange(const net::Endpoint& target, const std::string& payload,
              std::string& response) {
    std::string error;
    net::Fd conn = net::connect_endpoint(target, &error);
    if (!conn.valid()) return false;
    net::set_recv_timeout(conn.get(), 60000);
    if (!net::write_frame(conn.get(), payload)) return false;
    return net::read_frame(conn.get(), response) == net::FrameStatus::Ok;
}

std::string compile_payload(const std::string& app, double threshold_x,
                            long long deadline_ms) {
    json::Value request = json::Value::object();
    request.set("schema_version",
                json::Value::number(double(serve::kSchemaVersion)));
    request.set("type", json::Value::string("compile"));
    request.set("app", json::Value::string(app));
    request.set("threshold_x", json::Value::number(threshold_x));
    if (deadline_ms > 0)
        request.set("deadline_ms", json::Value::number(double(deadline_ms)));
    return json::dump(request);
}

void worker(const RunConfig& config, std::size_t index,
            std::atomic<long long>& next_request,
            std::atomic<long long>& cold_ids, WorkerTally& tally) {
    SplitMix64 rng(config.seed ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
    while (true) {
        const long long id = next_request.fetch_add(1);
        if (id >= config.requests) return;

        std::string payload;
        if (config.sleep_ms > 0) {
            json::Value request = json::Value::object();
            request.set("schema_version",
                        json::Value::number(double(serve::kSchemaVersion)));
            request.set("type", json::Value::string("sleep"));
            request.set("ms", json::Value::number(double(config.sleep_ms)));
            payload = json::dump(request);
        } else {
            // Warm draws repeat a small pool; cold draws a unique
            // threshold (never colliding with the pool's 4.0 + k/16
            // ladder).
            std::string app =
                config.apps[rng.next_below(config.apps.size())];
            double threshold_x;
            if (rng.next_double() < config.warm_fraction) {
                ++tally.warm;
                const auto slot = rng.next_below(
                    static_cast<std::uint64_t>(config.warm_pool));
                app = config.apps[slot % config.apps.size()];
                threshold_x = 4.0 + double(slot) / 16.0;
            } else {
                ++tally.cold;
                threshold_x =
                    8.0 + double(cold_ids.fetch_add(1)) / 1024.0;
            }
            payload =
                compile_payload(app, threshold_x, config.deadline_ms);
        }

        const auto begin = std::chrono::steady_clock::now();
        bool done = false;
        for (int attempt = 0; attempt < config.retry.max_attempts;
             ++attempt) {
            std::string response_text;
            if (!exchange(config.target, payload, response_text)) break;
            const auto doc = json::parse(response_text, nullptr);
            if (!doc.has_value()) break;
            const auto view = serve::parse_response(*doc);
            if (!view.has_value()) break;
            if (view->ok) {
                done = true;
                break;
            }
            if (view->error_kind != serve::ErrorKind::Overloaded) break;
            if (attempt + 1 >= config.retry.max_attempts) break;
            ++tally.retries;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                config.retry.delay_ms(attempt, rng, view->retry_after_ms)));
        }
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
        tally.latencies_us.push_back(static_cast<std::uint64_t>(us));
        if (done)
            ++tally.ok;
        else
            ++tally.errors;
    }
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, int p) {
    if (sorted.empty()) return 0;
    const std::size_t index =
        (sorted.size() - 1) * static_cast<std::size_t>(p) / 100;
    return sorted[index];
}

json::Value latency_doc(std::vector<std::uint64_t>& sorted) {
    json::Value doc = json::Value::object();
    std::uint64_t sum = 0;
    for (std::uint64_t v : sorted) sum += v;
    doc.set("count", json::Value::number(double(sorted.size())));
    doc.set("mean", json::Value::number(
                        sorted.empty() ? 0.0
                                       : double(sum) / double(sorted.size())));
    doc.set("p50", json::Value::number(double(percentile(sorted, 50))));
    doc.set("p90", json::Value::number(double(percentile(sorted, 90))));
    doc.set("p99", json::Value::number(double(percentile(sorted, 99))));
    doc.set("max", json::Value::number(
                       double(sorted.empty() ? 0 : sorted.back())));
    return doc;
}

/// Fetch one shard's stats document and pull out the queue-wait summary.
std::optional<json::Value> shard_stats(const net::Endpoint& endpoint) {
    json::Value request = json::Value::object();
    request.set("schema_version",
                json::Value::number(double(serve::kSchemaVersion)));
    request.set("type", json::Value::string("stats"));
    std::string response_text;
    if (!exchange(endpoint, json::dump(request), response_text))
        return std::nullopt;
    return json::parse(response_text, nullptr);
}

} // namespace

int main(int argc, char** argv) {
    RunConfig config;
    std::string connect_spec;
    std::string apps_csv = "nbody";
    std::string label = "run";
    std::string out_path;
    std::vector<std::string> stats_specs;
    long long requests = 1000;
    long long concurrency = 8;
    long long warm_pool = 8;
    long long seed = 42;
    long long max_attempts = 5;
    long long deadline_ms = 0;

    cli::OptionParser parser(
        argv[0],
        {"--connect <endpoint> [--requests <n>] [--concurrency <n>]\n"
         "      [--warm-fraction <f>] [--warm-pool <n>] [--apps a,b,...]\n"
         "      [--seed <n>] [--max-attempts <n>] [--deadline-ms <n>]\n"
         "      [--sleep-ms <n>]\n"
         "      [--label <name>] [--shard-stats <endpoint> ...] "
         "[--out <file>]"});
    parser.str("--connect", "<endpoint>",
               "daemon or router to drive (host:port or socket path)",
               &connect_spec);
    parser.integer("--requests", "<n>", "total requests (default 1000)",
                   &requests, /*min=*/1);
    parser.integer("--concurrency", "<n>",
                   "concurrent client threads (default 8)", &concurrency,
                   /*min=*/1);
    parser.real("--warm-fraction", "<f>",
                "fraction of requests drawn from the warm pool "
                "(default 0.9)",
                &config.warm_fraction);
    parser.integer("--warm-pool", "<n>",
                   "distinct warm (app, threshold) combinations "
                   "(default 8)",
                   &warm_pool, /*min=*/1);
    parser.str("--apps", "<a,b,...>",
               "comma-separated bundled apps to request (default nbody)",
               &apps_csv);
    parser.integer("--seed", "<n>", "workload seed (default 42)", &seed,
                   /*min=*/0);
    parser.integer("--max-attempts", "<n>",
                   "tries per request when overloaded (default 5)",
                   &max_attempts, /*min=*/1);
    parser.integer("--deadline-ms", "<n>",
                   "per-request deadline (0 = none)", &deadline_ms,
                   /*min=*/0);
    parser.integer("--sleep-ms", "<n>",
                   "I/O-bound mode: every request is a test-only sleep "
                   "of <n> ms (shards need --enable-test-endpoints)",
                   &config.sleep_ms, /*min=*/0);
    parser.str("--label", "<name>", "run label in the output document",
               &label);
    parser.multi("--shard-stats", "<endpoint>",
                 "fetch queue-wait stats from this shard after the run "
                 "(repeatable)",
                 &stats_specs);
    parser.str("--out", "<file>", "write the run document here (else stdout)",
               &out_path);

    if (!parser.parse(argc, argv)) return 2;
    if (connect_spec.empty()) {
        std::cerr << parser.usage();
        return 2;
    }
    std::string error;
    auto target = net::parse_endpoint(connect_spec, &error);
    if (!target.has_value()) {
        std::cerr << "psaflow-loadgen: " << error << "\n";
        return 2;
    }
    config.target = std::move(*target);
    config.requests = requests;
    config.concurrency = concurrency;
    config.warm_pool = warm_pool;
    config.seed = static_cast<std::uint64_t>(seed);
    config.retry.max_attempts = static_cast<int>(max_attempts);
    config.deadline_ms = deadline_ms;
    if (config.warm_fraction < 0.0) config.warm_fraction = 0.0;
    if (config.warm_fraction > 1.0) config.warm_fraction = 1.0;
    std::size_t start = 0;
    while (start <= apps_csv.size()) {
        const std::size_t comma = apps_csv.find(',', start);
        const std::string app = apps_csv.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!app.empty()) config.apps.push_back(app);
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    if (config.apps.empty()) {
        std::cerr << "psaflow-loadgen: --apps needs at least one app\n";
        return 2;
    }

    std::atomic<long long> next_request{0};
    std::atomic<long long> cold_ids{0};
    std::vector<WorkerTally> tallies(
        static_cast<std::size_t>(config.concurrency));
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(tallies.size());
    for (std::size_t i = 0; i < tallies.size(); ++i)
        threads.emplace_back([&, i] {
            worker(config, i, next_request, cold_ids, tallies[i]);
        });
    for (std::thread& t : threads) t.join();
    const auto wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin)
            .count();

    WorkerTally total;
    for (WorkerTally& tally : tallies) {
        total.ok += tally.ok;
        total.errors += tally.errors;
        total.retries += tally.retries;
        total.warm += tally.warm;
        total.cold += tally.cold;
        total.latencies_us.insert(total.latencies_us.end(),
                                  tally.latencies_us.begin(),
                                  tally.latencies_us.end());
    }
    std::sort(total.latencies_us.begin(), total.latencies_us.end());

    json::Value doc = json::Value::object();
    doc.set("label", json::Value::string(label));
    doc.set("endpoint", json::Value::string(config.target.describe()));
    doc.set("requests", json::Value::number(double(config.requests)));
    doc.set("concurrency", json::Value::number(double(config.concurrency)));
    doc.set("warm_fraction", json::Value::number(config.warm_fraction));
    doc.set("warm_pool", json::Value::number(double(config.warm_pool)));
    doc.set("seed", json::Value::number(double(seed)));
    doc.set("ok", json::Value::number(double(total.ok)));
    doc.set("errors", json::Value::number(double(total.errors)));
    doc.set("overload_retries", json::Value::number(double(total.retries)));
    doc.set("warm", json::Value::number(double(total.warm)));
    doc.set("cold", json::Value::number(double(total.cold)));
    if (config.sleep_ms > 0)
        doc.set("sleep_ms", json::Value::number(double(config.sleep_ms)));
    doc.set("wall_us", json::Value::number(double(wall_us)));
    doc.set("throughput_rps",
            json::Value::number(wall_us == 0
                                    ? 0.0
                                    : double(total.ok) * 1e6 /
                                          double(wall_us)));
    doc.set("latency_us", latency_doc(total.latencies_us));

    // Server-side queue waits, straight from each shard's stats endpoint;
    // the headline number is the worst shard's p90 (a cluster is as slow
    // as its most backlogged member).
    double queue_wait_p90_max = 0.0;
    json::Value shards = json::Value::array();
    for (const std::string& spec : stats_specs) {
        auto endpoint = net::parse_endpoint(spec, &error);
        if (!endpoint.has_value()) {
            std::cerr << "psaflow-loadgen: --shard-stats: " << error << "\n";
            return 2;
        }
        json::Value entry = json::Value::object();
        entry.set("endpoint", json::Value::string(endpoint->describe()));
        const auto stats = shard_stats(*endpoint);
        if (stats.has_value()) {
            if (const json::Value* wait = stats->find("queue_wait_us")) {
                entry.set("queue_wait_us", *wait);
                if (const json::Value* p90 = wait->find("p90"))
                    queue_wait_p90_max =
                        std::max(queue_wait_p90_max, p90->number_or(0.0));
            }
            if (const json::Value* steals = stats->find("queue_steals"))
                entry.set("queue_steals", *steals);
            if (const json::Value* reqs = stats->find("requests"))
                if (const json::Value* received = reqs->find("received"))
                    entry.set("requests_received", *received);
        } else {
            entry.set("error", json::Value::string("stats unreachable"));
        }
        shards.push(std::move(entry));
    }
    if (!stats_specs.empty()) {
        doc.set("queue_wait_us_p90_max",
                json::Value::number(queue_wait_p90_max));
        doc.set("shards", std::move(shards));
    }

    const std::string text = json::dump(doc);
    if (out_path.empty()) {
        std::cout << text << "\n";
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "psaflow-loadgen: cannot write '" << out_path
                      << "'\n";
            return 1;
        }
        out << text << "\n";
    }
    std::cerr << "psaflow-loadgen: " << label << ": " << total.ok << "/"
              << config.requests << " ok, "
              << (wall_us == 0 ? 0.0
                               : double(total.ok) * 1e6 / double(wall_us))
              << " req/s\n";
    return total.errors == 0 ? 0 : 1;
}
