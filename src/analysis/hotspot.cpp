#include "analysis/hotspot.hpp"

#include <algorithm>

#include "analysis/profile_cache.hpp"
#include "ast/walk.hpp"
#include "meta/query.hpp"
#include "support/trace.hpp"

namespace psaflow::analysis {

using namespace psaflow::ast;

HotspotReport detect_hotspots(Module& module, const sema::TypeInfo& types,
                              const Workload& workload) {
    interp::InterpOptions opt;
    opt.profile = true;
    // A real interpreter run (cache miss) nests its own engine-tagged
    // "run_function:" span under this one; a hit does not.
    trace::ScopedSpan span("detect_hotspots:" + workload.entry, "analysis");
    const interp::ExecutionProfile profile = ProfileCache::global().run(
        module, types, workload.entry,
        workload.make_args(workload.profile_scale), opt);
    span.set_work_units(profile.total_cost);

    HotspotReport report;
    report.total_cost = profile.total_cost;

    for (const auto& fn : module.functions) {
        for (For* loop : meta::outermost_for_loops(*fn)) {
            const interp::LoopStats* stats = profile.loop(loop->id);
            if (stats == nullptr || stats->trips == 0) continue;
            HotspotCandidate cand;
            cand.loop = loop;
            cand.function = fn.get();
            // Rank by self cost: a driver loop that merely *calls* the hot
            // function must not mask the loop doing the work.
            cand.cost = stats->self_cost;
            cand.fraction = report.total_cost > 0.0
                                ? stats->self_cost / report.total_cost
                                : 0.0;
            cand.trips = stats->trips;
            report.candidates.push_back(cand);
        }
    }

    std::sort(report.candidates.begin(), report.candidates.end(),
              [](const HotspotCandidate& a, const HotspotCandidate& b) {
                  return a.cost > b.cost;
              });
    return report;
}

} // namespace psaflow::analysis
