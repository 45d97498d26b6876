// The unit of work of the serving layer: one (app, mode, budget, workload)
// compile request, plus its parse from the JSON shapes both entry points
// share — a `psaflowc --batch` manifest entry and a `psaflowd` wire
// request are the same object, so the daemon and the batch driver run the
// exact same requests through the exact same executor (serve/service).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace psaflow::flow {
struct ManifestFlow;
} // namespace psaflow::flow

namespace psaflow::serve {

/// Admission priority lanes, highest first. Interactive requests (a
/// developer waiting at a prompt) overtake batch backfill in the daemon's
/// LaneQueue.
enum class Priority { Interactive = 0, Batch = 1 };
inline constexpr std::size_t kPriorityLanes = 2;
[[nodiscard]] const char* to_string(Priority priority);

struct CompileRequest {
    std::string app;              ///< bundled application name (required)
    std::string mode = "informed"; ///< "informed" | "uninformed"
    double budget = -1.0;          ///< USD-per-run budget; < 0 = none
    double threshold_x = 4.0;      ///< Fig. 3 intensity threshold
    std::string out_dir;           ///< where design sources + CSV are written
    long long deadline_ms = 0;     ///< per-request deadline; 0 = none
    Priority priority = Priority::Interactive; ///< admission lane

    /// Manifest-defined flow (flow/manifest.hpp), lowered once by
    /// parse_compile_request; null = run the builtin standard flow. Shared
    /// and immutable, so requests stay cheap to copy and queue and the
    /// executor runs it as is.
    std::shared_ptr<const flow::ManifestFlow> flow;
};

/// How a request failed — the wire protocol's error taxonomy.
enum class ErrorKind {
    None,
    BadRequest,       ///< malformed/unknown input; retrying is pointless
    Overloaded,       ///< admission queue full; retry after backoff
    DeadlineExceeded, ///< cancelled by its own deadline
    Internal,         ///< the flow failed; poisons only this request
};
[[nodiscard]] const char* to_string(ErrorKind kind);
[[nodiscard]] ErrorKind error_kind_from_string(const std::string& name);

/// Populate `out` from a JSON object (a manifest entry or the fields of a
/// wire compile request). Returns an error message on invalid input,
/// nullopt on success. Absent fields keep the defaults already in `out`,
/// so callers can pre-seed manifest-level defaults.
///
/// A "flow" member must be an inline manifest object (clients ship flows
/// over the wire to psaflowd); it is fully validated here, so a bad flow
/// is a parse error, not a mid-run failure. This runs on the daemon's and
/// router's reader threads, so it never touches the file system: the
/// file-path form belongs to parse_manifest, whose file the operator owns.
[[nodiscard]] std::optional<std::string>
parse_compile_request(const json::Value& entry, CompileRequest& out);

/// The request's cache-affinity key: a digest of the module source it will
/// compile (the bundled app's HLC text when the app is known, else the
/// name) plus any in-request flow manifest's canonical text. Everything
/// warm about a request — profile-cache entries, design artifacts, a
/// worker's parsed session state — keys off this content, so the router
/// consistent-hashes it onto shards and the daemon's LaneQueue uses it for
/// worker sub-queue affinity. Deterministic across processes and hosts.
[[nodiscard]] std::uint64_t affinity_digest(const CompileRequest& req);

/// Manifest-level session settings a batch file may carry alongside its
/// requests. Values are only overwritten when the manifest provides them.
struct ManifestDefaults {
    long long jobs = 0;
    std::string cache_dir;
    std::string out_root = "designs";
};

/// Parse a batch manifest document (a bare array of request objects, or an
/// object with "requests" plus optional "jobs"/"cache_dir"/"out").
/// Requests without an "out" default to `<out_root>/<app>-<index>`. An
/// entry's "flow" may also be a manifest file path
/// (flow::read_manifest_file), relative to the working directory.
/// Returns an error message on malformed input.
[[nodiscard]] std::optional<std::string>
parse_manifest(const json::Value& doc, ManifestDefaults& defaults,
               std::vector<CompileRequest>& requests);

} // namespace psaflow::serve
