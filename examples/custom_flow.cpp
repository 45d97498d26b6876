// custom_flow: extending psaflow with your own design-flow.
//
// The paper's closing argument is that "to target new technology,
// target-specific design-flow tasks can be implemented and seamlessly
// plugged in". This example does exactly that:
//   - defines a new Task (a loop-interchange-style "Reverse Unroll Hint"
//     is too trivial; we implement a real one: a tiling annotation task for
//     a hypothetical many-core 'DSP cluster' target),
//   - defines a custom PsaStrategy (prefer the accelerator whenever the
//     outer loop is parallel, no cost model),
//   - assembles a two-path DesignFlow from repository tasks + the new task
//     and runs it on the K-Means benchmark.
#include <iostream>

#include "core/psaflow.hpp"
#include "flow/session.hpp"
#include "flow/strategy.hpp"
#include "flow/tasks.hpp"
#include "frontend/parser.hpp"
#include "meta/instrument.hpp"
#include "support/string_util.hpp"

using namespace psaflow;

namespace {

/// A custom design-flow task: annotate the kernel's outer loop with a
/// cache-tiling hint for a fictional DSP-cluster backend.
class TileForDspCluster final : public flow::Task {
public:
    std::string name() const override { return "Tile For DSP Cluster"; }
    flow::TaskClass cls() const override {
        return flow::TaskClass::Transform;
    }

    void run(flow::FlowContext& ctx) override {
        meta::remove_pragmas(ctx.outer_loop(), "dsp tile");
        meta::add_pragma(ctx.outer_loop(), "dsp tile(128)");
        // Reuse the OpenMP backend for emission: the DSP cluster runs an
        // OpenMP-like runtime in this (deliberately simple) example.
        ctx.spec.target = codegen::TargetKind::CpuOpenMp;
        ctx.spec.omp_threads = 16; // the cluster has 16 DSP cores
        ctx.note("tiled outer loop for the DSP cluster (tile 128, 16 cores)");
    }
};

/// A custom PSA strategy: always offload parallel loops to the new target,
/// keep sequential ones on the CPU path.
class PreferDspStrategy final : public flow::PsaStrategy {
public:
    std::string name() const override { return "prefer-dsp"; }

    std::vector<std::size_t> select(flow::FlowContext& ctx,
                                    const flow::BranchPoint& branch) override {
        const bool parallel = ctx.outer_dependence().parallel;
        ctx.note(std::string("custom PSA: outer loop is ") +
                 (parallel ? "parallel -> dsp path" : "sequential -> cpu"));
        for (std::size_t i = 0; i < branch.paths.size(); ++i) {
            if (branch.paths[i].name == (parallel ? "dsp" : "cpu")) return {i};
        }
        return {};
    }
};

} // namespace

int main() {
    // Assemble: standard target-independent prologue, then a custom branch.
    flow::DesignFlow custom;
    custom.prologue = {
        flow::identify_hotspot_loops(), flow::hotspot_loop_extraction(),
        flow::loop_dependence_analysis(),
        flow::remove_array_plus_eq(),
    };

    auto branch = std::make_shared<flow::BranchPoint>();
    branch->name = "A' (custom)";
    branch->strategy = std::make_shared<PreferDspStrategy>();
    branch->paths.push_back(flow::FlowPath{
        "dsp", {std::make_shared<TileForDspCluster>()}, nullptr});
    branch->paths.push_back(flow::FlowPath{
        "cpu",
        {flow::multi_thread_parallel_loops(), flow::omp_num_threads_dse()},
        nullptr});
    custom.branch = branch;

    // Run it on K-Means.
    const auto& app = apps::kmeans();
    auto module = frontend::parse_module(app.source, app.name);
    flow::FlowContext ctx(app.name, std::move(module), app.workload);

    // FlowSession is the engine's front door; a default session runs
    // branch paths on every hardware thread, with no persistent store.
    flow::FlowSession session;
    auto result = session.run(custom, std::move(ctx));

    std::cout << "=== custom PSA-flow on " << app.name << " ===\n\n";
    for (const auto& design : result.designs) {
        std::cout << "design '" << design.name() << "' ("
                  << format_compact(design.speedup, 4) << "x):\n";
        for (const auto& line : design.log) std::cout << "  " << line << "\n";
        const auto pos = design.source.find("#pragma dsp tile");
        std::cout << "  dsp tiling pragma in emitted source: "
                  << (pos != std::string::npos ? "yes" : "no") << "\n\n";
    }
    return 0;
}
