// Hotspot loop detection — the paper's "Identify Hotspot Loops" task
// (dynamic). The application is executed under the profiling interpreter
// (the stand-in for loop-timer instrumentation) and outermost loops are
// ranked by attributed cost. The same run profiles every outermost loop as
// a focus region, so each candidate also carries what a kernel extracted
// from it would observe at the profile scale.
#pragma once

#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "analysis/workload.hpp"
#include "ast/nodes.hpp"
#include "sema/type_check.hpp"

namespace psaflow::analysis {

struct HotspotCandidate {
    ast::For* loop = nullptr;          ///< the outermost loop
    ast::Function* function = nullptr; ///< function containing it
    double cost = 0.0;                 ///< attributed cost units
    double fraction = 0.0;             ///< cost / total program cost
    long long trips = 0;               ///< total iterations observed
    /// The loop's focus region: equal to the function-focus observations
    /// of a kernel extracted from it, on the workload at profile scale.
    FocusProfile region;
};

struct HotspotReport {
    /// Candidates sorted by descending cost. Empty if the program has no
    /// loops or they never executed.
    std::vector<HotspotCandidate> candidates;
    double total_cost = 0.0;

    [[nodiscard]] const HotspotCandidate* top() const {
        return candidates.empty() ? nullptr : &candidates.front();
    }
};

class ProfileCache;

/// Run `workload` on `module` with region focus and rank outermost loops
/// by cost. Loops inside the entry function and all (transitively) called
/// functions participate. The run goes through `cache` when one is given.
[[nodiscard]] HotspotReport detect_hotspots(ast::Module& module,
                                            const sema::TypeInfo& types,
                                            const Workload& workload,
                                            ProfileCache* cache = nullptr);

/// The ranking detect_hotspots makes from a region-focus `profile` of
/// `module`.
[[nodiscard]] HotspotReport rank_hotspots(ast::Module& module,
                                          const interp::ExecutionProfile& profile);

} // namespace psaflow::analysis
