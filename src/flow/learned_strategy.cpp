#include "flow/learned_strategy.hpp"

#include <algorithm>
#include <cmath>

#include "flow/engine.hpp"
#include "flow/session.hpp"
#include "flow/standard_flow.hpp"
#include "flow/strategy.hpp"
#include "frontend/parser.hpp"
#include "support/error.hpp"
#include "support/string_util.hpp"

namespace psaflow::flow {

std::vector<double> StrategyFeatures::as_vector() const {
    return {log_intensity,     log_compute_transfer,
            outer_parallel,    inner_with_deps,
            inner_fully_unrollable, dependent_fraction,
            transcendental_fraction, log_parallel_iters};
}

StrategyFeatures gather_features(FlowContext& ctx) {
    const Fig3Inputs in = gather_fig3_inputs(ctx);
    const auto shape = ctx.shape();

    StrategyFeatures out;
    out.log_intensity = std::log10(std::max(1e-6, in.flops_per_byte));
    out.log_compute_transfer = std::log10(
        std::max(1e-9, in.cpu_seconds) /
        std::max(1e-9, in.transfer_seconds));
    out.outer_parallel = in.outer_parallel ? 1.0 : 0.0;
    out.inner_with_deps = in.inner_loop_with_deps ? 1.0 : 0.0;
    out.inner_fully_unrollable = in.inner_fully_unrollable ? 1.0 : 0.0;
    out.dependent_fraction = shape.dependent_fraction;
    out.transcendental_fraction = shape.transcendental_fraction;
    out.log_parallel_iters =
        std::log10(std::max(1.0, shape.parallel_iters));
    return out;
}

LearnedStrategy::LearnedStrategy(std::vector<TrainingExample> examples, int k)
    : examples_(std::move(examples)), k_(k) {
    ensure(!examples_.empty(), "LearnedStrategy: no training examples");
    const std::size_t dims = examples_.front().features.as_vector().size();
    mean_.assign(dims, 0.0);
    stddev_.assign(dims, 0.0);
    for (const auto& ex : examples_) {
        const auto v = ex.features.as_vector();
        for (std::size_t d = 0; d < dims; ++d) mean_[d] += v[d];
    }
    for (double& m : mean_) m /= static_cast<double>(examples_.size());
    for (const auto& ex : examples_) {
        const auto v = ex.features.as_vector();
        for (std::size_t d = 0; d < dims; ++d) {
            const double diff = v[d] - mean_[d];
            stddev_[d] += diff * diff;
        }
    }
    for (double& s : stddev_) {
        s = std::sqrt(s / static_cast<double>(examples_.size()));
        if (s < 1e-12) s = 1.0; // constant feature: leave unscaled
    }
}

std::string LearnedStrategy::classify(const StrategyFeatures& features) const {
    const auto query = features.as_vector();
    struct Scored {
        double dist;
        const std::string* label;
    };
    std::vector<Scored> scored;
    scored.reserve(examples_.size());
    for (const auto& ex : examples_) {
        const auto v = ex.features.as_vector();
        double dist = 0.0;
        for (std::size_t d = 0; d < v.size(); ++d) {
            const double diff = (v[d] - query[d]) / stddev_[d];
            dist += diff * diff;
        }
        scored.push_back({dist, &ex.label});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) { return a.dist < b.dist; });

    const int k = std::min<int>(k_, static_cast<int>(scored.size()));
    // Majority vote over the k nearest; the single nearest breaks ties.
    std::vector<std::pair<std::string, int>> votes;
    for (int i = 0; i < k; ++i) {
        bool found = false;
        for (auto& [label, count] : votes) {
            if (label == *scored[static_cast<std::size_t>(i)].label) {
                ++count;
                found = true;
            }
        }
        if (!found)
            votes.emplace_back(*scored[static_cast<std::size_t>(i)].label, 1);
    }
    std::string best = *scored.front().label;
    int best_count = 0;
    for (const auto& [label, count] : votes) {
        if (count > best_count ||
            (count == best_count && label == *scored.front().label)) {
            best = label;
            best_count = count;
        }
    }
    return best;
}

std::vector<std::size_t> LearnedStrategy::select(FlowContext& ctx,
                                                 const BranchPoint& branch) {
    obs::DecisionRecord scratch;
    return select_explained(ctx, branch, scratch);
}

std::vector<std::size_t>
LearnedStrategy::select_explained(FlowContext& ctx, const BranchPoint& branch,
                                  obs::DecisionRecord& record) {
    record.strategy = name();
    const std::string label = classify(gather_features(ctx));
    ctx.note("learned PSA (kNN): classified as '" + label + "'");
    for (const FlowPath& path : branch.paths) {
        obs::DecisionCandidate candidate;
        candidate.path = path.name;
        candidate.evaluation = path.name == label
                                   ? "kNN majority label (k=" +
                                         std::to_string(k_) + ")"
                                   : "not the kNN label";
        record.candidates.push_back(std::move(candidate));
    }
    for (std::size_t i = 0; i < branch.paths.size(); ++i) {
        if (branch.paths[i].name != label) continue;
        record.rationale = "kNN classified the kernel as '" + label + "'";
        return {i};
    }
    ctx.note("learned PSA: no path named '" + label +
             "' — terminating unmodified");
    record.rationale = "kNN label '" + label +
                       "' names no flow path — terminating unmodified";
    return {};
}

std::vector<TrainingExample>
train_from_oracle(const std::vector<const apps::Application*>& training_apps) {
    std::vector<TrainingExample> out;
    FlowSession session;
    for (const apps::Application* app : training_apps) {
        FlowContext ctx(app->name,
                        frontend::parse_module(app->source, app->name),
                        app->workload);
        ctx.allow_single_precision = app->allow_single_precision;
        ctx.profile_cache = &session.profile_cache();

        // Run the target-independent prologue once, capture features, then
        // label by running the branch on a fork with the select-all
        // strategy and keeping the winner.
        const DesignFlow flow = standard_flow(Mode::Uninformed);
        for (const TaskPtr& task : flow.prologue) task->run(ctx);

        TrainingExample ex;
        ex.features = gather_features(ctx);

        DesignFlow branch_only;
        branch_only.branch = flow.branch;
        auto result = session.run(branch_only, ctx.fork());
        const DesignArtifact* best = result.best();
        ensure(best != nullptr, "train_from_oracle: no synthesizable design "
                                "for '" + app->name + "'");
        switch (best->spec.target) {
            case codegen::TargetKind::CpuOpenMp: ex.label = "cpu"; break;
            case codegen::TargetKind::CpuGpu: ex.label = "gpu"; break;
            case codegen::TargetKind::CpuFpga: ex.label = "fpga"; break;
            default: ex.label = "cpu"; break;
        }
        out.push_back(std::move(ex));
    }
    return out;
}

} // namespace psaflow::flow
