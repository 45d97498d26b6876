// Flight recorder: a bounded ring of per-request digests.
//
// Every completed request — daemon compiles and sleeps, router relays,
// psaflowc single-shot/batch runs — drops one fixed-size FlightRecord
// into the ring: trace id, lane, shard, timings (queue wait / execute /
// total), retries, cache hits, the decision winner and the terminal
// status. The ring answers "why was *this* request slow" after the fact:
// dump it over the wire with {"type":"flight"} (psaflow-client --flight),
// and when a request breaches the configured latency SLO its digest is
// auto-snapshotted to the structured log (obs::warn) the moment it
// completes, so the evidence survives even after the ring wraps.
//
// Concurrency: one mutex guards the ring. A record costs one fixed-size
// copy under it (the SLO log line is written outside it), so no record is
// ever dropped and a snapshot is never torn.
//
// Each serving process owns its recorder (serve::Daemon, cluster::Router,
// psaflowc), sized and given its SLO threshold at construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace psaflow::obs {

/// One request's digest. Fixed-size (inline char fields, truncating
/// writes) so recording is one copy and the ring never allocates after
/// construction.
struct FlightRecord {
    std::uint64_t trace_id = 0;      ///< 0 when the request was untraced
    std::uint64_t seq = 0;           ///< stamped by the recorder (1-based)
    std::uint64_t queue_wait_us = 0; ///< admission-queue wait
    std::uint64_t exec_us = 0;       ///< execution wall clock
    std::uint64_t total_us = 0;      ///< queue + execute
    std::uint32_t retries = 0;       ///< relay attempts beyond the first
    std::uint32_t cache_hits = 0;    ///< cache-tier hits charged to the request
    std::uint64_t slo_breach = 0;    ///< 1 when total_us exceeded the SLO
    char lane[16] = {};              ///< "interactive" | "batch" | ""
    char shard[32] = {};             ///< serving shard ("host:port" | name)
    char app[24] = {};               ///< compile app / request type
    char winner[32] = {};            ///< decision winner (first branch)
    char status[16] = {};            ///< "ok" | error kind

    void set_lane(std::string_view v) { assign(lane, sizeof lane, v); }
    void set_shard(std::string_view v) { assign(shard, sizeof shard, v); }
    void set_app(std::string_view v) { assign(app, sizeof app, v); }
    void set_winner(std::string_view v) { assign(winner, sizeof winner, v); }
    void set_status(std::string_view v) { assign(status, sizeof status, v); }

private:
    static void assign(char* dst, std::size_t n, std::string_view src) {
        std::memset(dst, 0, n);
        std::memcpy(dst, src.data(), std::min(src.size(), n - 1));
    }
};

class FlightRecorder {
public:
    static constexpr std::size_t kDefaultCapacity = 256;

    /// A ring of `capacity` records (at least 1) with a latency SLO of
    /// `slo_us` microseconds (0 disables breach detection).
    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity,
                            std::uint64_t slo_us = 0);

    /// Latency SLO in microseconds; 0 disables breach detection.
    [[nodiscard]] std::uint64_t slo_us() const { return slo_us_; }

    /// Record one completed request (stamps rec.seq; flags + logs an SLO
    /// breach).
    void record(FlightRecord rec);

    /// Copies of the live records, oldest-first by seq; at most
    /// `max_records` of the newest when max_records > 0.
    [[nodiscard]] std::vector<FlightRecord>
    snapshot(std::size_t max_records = 0) const;

    [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
    /// Records accepted since construction (including overwritten).
    [[nodiscard]] std::uint64_t total() const;
    /// Requests that breached the SLO.
    [[nodiscard]] std::uint64_t breaches() const;

private:
    const std::uint64_t slo_us_;
    mutable std::mutex mu_;
    std::vector<FlightRecord> ring_; ///< record seq s lives at (s-1) % size
    std::uint64_t total_ = 0;        ///< seq of the newest record
    std::uint64_t breaches_ = 0;
};

/// One record as a JSON object (trace_id as 16-hex, timings in
/// microseconds) — the "records" entries of a flight response.
[[nodiscard]] json::Value to_json(const FlightRecord& record);

} // namespace psaflow::obs
