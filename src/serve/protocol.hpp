// The daemon's wire protocol: what goes inside each frame (support/net
// provides the framing). One JSON object per frame, one response frame per
// request frame, connection stays open for pipelined requests.
//
// Every request may carry "schema_version" (currently 1). Absent means 1
// (the pre-versioning wire shape); any other value is rejected with a
// clear bad_request error instead of an opaque field-shape failure.
// Responses always stamp the version they speak.
//
// Requests:
//   {"schema_version":1, "type":"compile", "app":"nbody",
//    "mode":"informed", "budget":0.001, "threshold_x":4.0,
//    "out":"designs/nbody", "deadline_ms":500, "flow":{...}}
//     — the compile fields are exactly a `psaflowc --batch` manifest
//       entry, so a manifest request and a daemon request are the same
//       object (serve/request.hpp). The optional "flow" member is an
//       inline flow manifest object (flow/manifest.hpp): clients ship
//       user-programmed flows over the wire and the daemon runs them in
//       place of the builtin standard flow. Any other "flow" value — a
//       file path included — is a bad_request.
//   {"type":"stats"}  — live metrics snapshot (never queued; answered
//       inline even when every worker is busy).
//   {"type":"metrics"} — Prometheus text-format exposition of the same
//       metrics plane; the body rides in the response's "body" member.
//       Answered inline.
//   {"type":"logs", "max":100, "min_level":"info"} — recent records from
//       the structured-log ring (both fields optional). Answered inline.
//   {"type":"ping"}   — liveness/readiness probe, answered inline.
//   {"type":"cas_get", "key":"<16-hex>"} — remote-CAS read: the payload of
//       the daemon's *local* disk store for that 64-bit content key
//       (base64 in the response's "payload"; "found":false on a miss).
//       Never recurses into the daemon's own remote tier, so store chains
//       terminate. Answered inline — artifact exchange must not queue
//       behind compiles.
//   {"type":"cas_put", "key":"<16-hex>", "payload":"<base64>"} — remote-CAS
//       write into the daemon's local disk store. Content-addressed, so
//       re-puts are idempotent. Answered inline.
//   {"type":"sleep", "ms":200, "deadline_ms":50} — test-only (rejected
//       unless the daemon enables test endpoints): occupies a worker,
//       cancellable; exists so tests can fill the queue and trip
//       deadlines deterministically without depending on compile times.
//   {"type":"flight", "max":50} — newest records from the flight
//       recorder (obs/flight.hpp): per-request digests for slow-request
//       forensics. "max" optional (0 = everything live). Answered inline
//       by daemons (their completions) and routers (their relays).
//   {"type":"cluster_stats"} / {"type":"cluster_metrics"} — router only:
//       scrape every live shard concurrently and return the fleet view
//       (merged histograms + counters with per-shard labels). A daemon
//       rejects these with bad_request pointing at the router.
//   {"type":"drain", "shard":"a", "draining":true} — router only: take a
//       shard out of rotation (or put it back). A daemon rejects it the
//       same way.
//
// Any request may additionally carry a "trace" member (wire_trace.hpp):
//   "trace": {"trace_id":"<16-hex>", "parent_span":N}
// and the response to a traced request carries back
//   "trace": {"trace_id":..., "spans":[...]}
// so the requester can graft the responder's work into its span tree.
//
// Responses:
//   {"ok":true, "type":..., ...payload...}
//   {"ok":false, "error_kind":"bad_request"|"overloaded"|
//    "deadline_exceeded"|"internal", "error":"...",
//    "retry_after_ms":N}            — retry_after_ms only on overloaded.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "obs/flight.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "serve/wire_trace.hpp"
#include "support/json.hpp"

namespace psaflow::serve {

/// The wire schema version this build speaks. Requests without a
/// "schema_version" are treated as version 1; responses always carry it.
inline constexpr int kSchemaVersion = 1;

enum class RequestType {
    Compile,
    Stats,
    Ping,
    Sleep,
    Logs,
    Metrics,
    CasGet,
    CasPut,
    Flight,
    ClusterStats,
    ClusterMetrics,
    Drain, ///< router admin; its fields are read from the document
};

struct WireRequest {
    RequestType type = RequestType::Ping;
    CompileRequest compile;     ///< valid when type == Compile
    long long sleep_ms = 0;     ///< valid when type == Sleep
    long long deadline_ms = 0;  ///< Sleep's deadline (Compile carries its own)
    long long logs_max = 100;   ///< valid when type == Logs
    std::string logs_min_level; ///< Logs filter ("" = everything captured)
    std::uint64_t cas_key = 0;  ///< valid when type == CasGet/CasPut
    std::string cas_payload;    ///< decoded bytes, valid when type == CasPut
    long long flight_max = 0;   ///< valid when type == Flight (0 = all)
    WireTraceContext trace;     ///< distributed trace context (any type)
};

/// Parse one request frame. Returns an error message (a bad_request body
/// for the caller to send back) on malformed input. Daemons and routers
/// both parse every frame here, so they reject the same malformed
/// requests; a daemon then refuses the router-only types.
[[nodiscard]] std::optional<std::string>
parse_wire_request(const json::Value& doc, WireRequest& out);

/// {"schema_version":N,"type":type}: a request to add members to.
[[nodiscard]] json::Value make_request(const std::string& type);
/// {"ok":true,"schema_version":N,"type":type}: the envelope every success
/// response starts with, in wire order; builders append their members.
[[nodiscard]] json::Value make_ok_response(const std::string& type);

/// Response builders (serialise with json::dump before framing).
[[nodiscard]] json::Value make_error_response(ErrorKind kind,
                                              const std::string& message,
                                              long long retry_after_ms = 0);
[[nodiscard]] json::Value make_compile_response(const CompileRequest& req,
                                                const CompileOutcome& outcome);
[[nodiscard]] json::Value make_pong_response();
/// metrics / cluster_metrics response: Prometheus text in "body".
[[nodiscard]] json::Value make_metrics_response(const std::string& type,
                                                std::string body);

/// cas_get response: "found" + base64 "payload" when present.
[[nodiscard]] json::Value
make_cas_get_response(const std::optional<std::string>& payload);
/// flight response: recorder totals + the newest `max_records` digests
/// (0 = every live record), oldest first. Shared by daemons and routers.
[[nodiscard]] json::Value
make_flight_response(const obs::FlightRecorder& recorder,
                     long long max_records);
/// logs response: the newest `max_records` structured-log records at or
/// above `min_level` (as in obs::parse_log_level; "" = all), oldest
/// first. Shared by daemons and routers.
[[nodiscard]] json::Value make_logs_response(long long max_records,
                                             const std::string& min_level);
/// cas_put response: "stored" is false when the daemon has no disk store.
[[nodiscard]] json::Value make_cas_put_response(bool stored);

/// Flow counters by name (cas.hits, profile_cache.misses, ...).
using CounterMap = std::map<std::string, std::uint64_t>;
/// hits / (hits + misses) of two named counters (absent = 0), 0 when both
/// are 0.
[[nodiscard]] double hit_rate(const CounterMap& counters, const char* hits,
                              const char* misses);
/// The stats documents' "cache" object: CAS, profile-cache and remote-CAS
/// hit rates.
[[nodiscard]] json::Value cache_hit_rates(const CounterMap& counters);
/// Microseconds elapsed since `start`.
[[nodiscard]] std::uint64_t
us_since(std::chrono::steady_clock::time_point start);

/// The client's view of a response frame: the failure taxonomy decoded,
/// with the full document kept for payload access.
struct ResponseView {
    bool ok = false;
    ErrorKind error_kind = ErrorKind::Internal;
    std::string error;
    long long retry_after_ms = 0;
};

/// Decode the ok/error envelope of a response document. Returns nullopt
/// (not a ResponseView) when the document is not a response object at all.
[[nodiscard]] std::optional<ResponseView>
parse_response(const json::Value& doc);

} // namespace psaflow::serve
