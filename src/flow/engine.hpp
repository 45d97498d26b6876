// The PSA-flow engine: executes a DesignFlow over a FlowContext, forking at
// branch points, finalising every leaf into a DesignArtifact (emitted
// source + predicted performance), and applying the Fig. 3 cost/budget
// feedback loop in informed mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "flow/strategy.hpp"
#include "flow/task.hpp"
#include "obs/decision.hpp"
#include "platform/kernel_shape.hpp"

namespace psaflow::flow {

/// One generated design (a leaf of the PSA-flow).
struct DesignArtifact {
    codegen::DesignSpec spec;
    std::string source;            ///< emitted design source text
    double hotspot_seconds = 0.0;  ///< predicted hotspot-region time
    double speedup = 0.0;          ///< vs single-thread CPU reference
    double loc_delta = 0.0;        ///< added LOC fraction vs reference
    bool synthesizable = true;     ///< false: FPGA design overmaps (excluded
                                   ///< from Fig. 5 / Table I, like the
                                   ///< paper's Rush Larsen FPGA designs)
    platform::KernelShape shape;   ///< shape the estimate used
    std::vector<std::string> log;  ///< per-design task log

    [[nodiscard]] std::string name() const { return spec.design_name(); }
};

struct FlowResult {
    std::vector<DesignArtifact> designs;
    double reference_seconds = 0.0;
    std::vector<std::string> log; ///< prologue log

    /// Branch-point provenance, in deterministic traversal order (parent
    /// branch first, then each selected path's nested records in path
    /// order) — identical at any jobs setting. Budget-feedback rounds
    /// append rather than replace, so a vetoed first-round selection stays
    /// visible next to the re-selection that replaced it (told apart by
    /// DecisionRecord::feedback_iteration).
    std::vector<obs::DecisionRecord> decisions;

    /// The artifact the informed flow recommends: fastest synthesizable.
    [[nodiscard]] const DesignArtifact* best() const;

    [[nodiscard]] const DesignArtifact*
    find(codegen::TargetKind target, platform::DeviceId device) const;
};

struct EngineOptions {
    Budget budget;       ///< Fig. 3 cost feedback (informed mode only)
    CostModel cost_model;
    int max_feedback_iterations = 3;

    /// Worker threads for independent branch paths. 1 runs strictly
    /// sequentially on the calling thread; 0 picks the process default
    /// (PSAFLOW_JOBS or hardware concurrency). Any setting produces a
    /// byte-identical FlowResult: paths fork deterministically before they
    /// are scheduled and leaves merge back in flow order.
    int jobs = 0;
};

namespace detail {
/// The engine proper, behind the FlowSession facade: executes the flow
/// with the options exactly as given (no session defaults applied, no
/// session-level accounting).
[[nodiscard]] FlowResult run_flow_impl(const DesignFlow& flow,
                                       FlowContext ctx,
                                       const EngineOptions& options);

/// Persistent-cache key of one leaf design. The signature pins the exact
/// task sequence that produced the state; the module print (pragmas
/// included: they change the emitted design), spec, FPGA report and
/// workload digest pin everything finalize consumes.
[[nodiscard]] std::uint64_t artifact_key(FlowContext& ctx,
                                         double reference_seconds,
                                         const std::string& signature);
} // namespace detail

} // namespace psaflow::flow
