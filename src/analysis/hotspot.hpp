// Hotspot loop detection — the paper's "Identify Hotspot Loops" task
// (dynamic). The application is executed under the profiling interpreter
// (the stand-in for loop-timer instrumentation) and outermost loops are
// ranked by attributed cost.
#pragma once

#include <string>
#include <vector>

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

/// Run `workload` on `module` and rank outermost loops by cost. Loops inside
/// the entry function and all (transitively) called functions participate.
/// The run goes through `cache` when one is given.
[[nodiscard]] HotspotReport detect_hotspots(ast::Module& module,
                                            const sema::TypeInfo& types,
                                            const Workload& workload,
                                            ProfileCache* cache = nullptr);

} // namespace psaflow::analysis
