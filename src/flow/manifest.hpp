// Flow manifests: the declarative, user-programmable spelling of a
// PSA-flow — the public API that turns the engine from a program into a
// platform. A manifest is a versioned JSON document naming tasks by their
// stable TaskRegistry ids and branch points by named strategies; it is
// validated at load with precise error locations and lowered to the
// existing DesignFlow/BranchPoint/PsaStrategy structures, so FlowSession
// executes it unchanged and determinism, caching, tracing and --explain
// provenance all work for free.
//
// Schema (version 1):
//   {
//     "psaflow_manifest": 1,            // required version tag
//     "name": "my flow",                // optional display name
//     "prologue": ["task-id", ...],     // optional task sequence
//     "branches": {"dev": {...}},       // optional named branch definitions
//     "branch": {...} | "dev",          // optional root branch (object or
//                                       // a reference into "branches")
//     "budget": {"max_run_cost": 1e-3}, // optional Fig. 3 cost budget
//     "threshold_x": 4.0,               // optional intensity threshold
//     "max_feedback_iterations": 3      // optional feedback-loop cap
//   }
//   branch := {"name": "A", "strategy": <strategy>, "paths": [<path>...]}
//   path   := {"name": "gpu", "tasks": ["task-id"...],
//              "branch": {...} | "dev"} // optional nested branch
//   strategy := "informed" | "select-all"              // string shorthand
//             | {"name": "fixed-path", "paths": ["gpu", ...]}
//             | {"name": "learned", "k": 3, "train_apps": ["nbody", ...]}
//
// Unknown fields, unknown task ids, unknown strategies, duplicate path
// names, circular branch references and malformed parameter values are all
// rejected with a JSON-path location ("flow manifest: $.branch.paths[2]
// .tasks[0]: unknown task id '...'").
//
// The manifest's engine parameters (budget / threshold_x /
// max_feedback_iterations) override request-level settings when present:
// a flow that declares its own budget means it.
//
// Caveat: the engine's cost-budget feedback re-selects with the informed
// strategy, which matches root paths by the names "cpu"/"gpu"/"fpga" — a
// constrained budget only makes sense for manifests whose root branch uses
// those path names (as the standard flow does).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "flow/task.hpp"
#include "support/json.hpp"

namespace psaflow::flow {

/// The manifest schema version this build reads and writes.
inline constexpr int kManifestVersion = 1;

/// A lowered manifest: the executable flow plus the engine-parameter
/// overrides the document carried (absent fields stay nullopt so callers
/// can tell "manifest said 4.0" from "manifest said nothing").
struct ManifestFlow {
    DesignFlow flow;
    std::string name;                          ///< "" when absent
    std::optional<double> max_run_cost;        ///< "budget".max_run_cost
    std::optional<double> threshold_x;
    std::optional<int> max_feedback_iterations;
    /// json::dump of the document the flow was lowered from: the flow's
    /// identity in the flow-result cache key (core/psaflow.cpp).
    std::string canonical;
};

/// Validate and lower a parsed manifest document. Throws psaflow::Error
/// with a "flow manifest: $.<json-path>: <problem>" message on any schema
/// violation.
[[nodiscard]] ManifestFlow from_manifest(const json::Value& doc);

/// Parse + lower manifest JSON text. JSON syntax errors carry the byte
/// offset; schema errors the JSON path.
[[nodiscard]] ManifestFlow parse_manifest_text(std::string_view text);

/// Read the manifest file at `path` and lower it (its `canonical` text is
/// what a compile request carries as its "flow" member). Throws
/// psaflow::Error: "flow manifest: cannot read '<path>'", or the JSON
/// syntax / schema diagnostic with " [<path>]" appended. The file form is
/// for the operator's own files (`psaflowc --flow`, `--batch` entries,
/// `psaflow-client --flow`); a wire request only carries inline documents.
[[nodiscard]] ManifestFlow read_manifest_file(const std::string& path);

/// Export `flow` as a manifest document — the inverse of from_manifest for
/// flows built from registered tasks and manifest-expressible strategies
/// (informed, select-all, fixed-path). `flow::to_manifest(standard_flow())`
/// is the schema's golden reference: serialising it with json::dump is
/// byte-stable and re-importing it reproduces the builtin flow exactly.
/// Throws psaflow::Error for strategies with no manifest spelling (e.g. a
/// learned strategy's training examples are not serialisable).
[[nodiscard]] json::Value to_manifest(const DesignFlow& flow,
                                      const std::string& name = "");

} // namespace psaflow::flow
