// FlowContext: the design state threaded through a PSA-flow. Each branch
// path forks the context (deep-cloning the module) so sibling paths cannot
// observe each other's transforms — the mechanism behind Fig. 1's
// "increasingly specialized designs".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "analysis/dependence.hpp"
#include "analysis/workload.hpp"
#include "ast/nodes.hpp"
#include "codegen/design_spec.hpp"
#include "perf/shape_builder.hpp"
#include "platform/fpga.hpp"
#include "sema/type_check.hpp"

namespace psaflow {
class CancelToken;
} // namespace psaflow

namespace psaflow::analysis {
class ProfileCache;
} // namespace psaflow::analysis

namespace psaflow::cas {
class CasStore;
} // namespace psaflow::cas

namespace psaflow::flow {

/// Content digest of `workload` (see FlowContext::workload_digest); never
/// 0. Needs no module, so a compile can key on it before parsing.
[[nodiscard]] std::uint64_t workload_digest(const analysis::Workload& workload);

class FlowContext {
public:
    /// Start a flow over `source_module` driven by `workload`.
    FlowContext(std::string app_name, ast::ModulePtr source_module,
                analysis::Workload workload);

    FlowContext(FlowContext&&) = default;
    FlowContext& operator=(FlowContext&&) = default;

    /// Deep copy for a branch path: clones the module and re-checks types.
    /// The kernel characterisation carries over with its loop ids mapped
    /// onto the clone; other node-id-keyed caches are dropped.
    [[nodiscard]] FlowContext fork() const;

    // ---- state access -------------------------------------------------

    [[nodiscard]] ast::Module& module() { return *module_; }
    [[nodiscard]] const ast::Module& module() const { return *module_; }
    [[nodiscard]] const sema::TypeInfo& types() const { return types_; }
    [[nodiscard]] const analysis::Workload& workload() const {
        return workload_;
    }
    [[nodiscard]] const std::string& app_name() const { return app_name_; }
    [[nodiscard]] const std::string& reference_source() const {
        return reference_source_;
    }

    /// The extracted kernel function; throws before extraction.
    [[nodiscard]] ast::Function& kernel() const;
    [[nodiscard]] ast::For& outer_loop() const;
    [[nodiscard]] bool has_kernel() const { return !spec.kernel_name.empty(); }

    /// Evaluation scale relative to profiling scale.
    [[nodiscard]] double relative_scale() const {
        return workload_.eval_scale / workload_.profile_scale;
    }

    // ---- cache management -----------------------------------------------

    /// Call after any structural edit: re-runs sema and drops the dynamic
    /// characterisation (node ids / costs changed).
    void invalidate();

    /// invalidate() for the extraction of the kernel from the hotspot loop,
    /// then the kernel's characterisation, which takes its profile-scale
    /// observations from the loop's focus region (hotspot_region) instead
    /// of a run.
    void kernel_extracted();

    /// Dynamic kernel characterisation of the *current* module state;
    /// recomputed lazily after invalidation.
    [[nodiscard]] const analysis::KernelCharacterization& characterization();

    /// Dependence analysis of the kernel's outer loop (current state).
    [[nodiscard]] const analysis::DependenceInfo& outer_dependence();

    /// KernelShape of the current design at evaluation scale, folding in
    /// the accumulated DesignSpec decisions (SP, shared arrays).
    [[nodiscard]] platform::KernelShape shape();

    /// Single-thread CPU reference time (captured by the first
    /// characterisation of the pristine kernel; stable across transforms).
    [[nodiscard]] double reference_seconds();

    /// Content digest of the workload: entry, scales and the full argument
    /// contents at the scales the dynamic analyses run (profile and 2x
    /// profile). The module print alone does not identify a flow's inputs,
    /// so persistent artifact-cache keys mix this in. Memoized; forks
    /// inherit the digest (the workload is shared).
    [[nodiscard]] std::uint64_t workload_digest();

    /// Adopt a digest the caller already computed with
    /// flow::workload_digest(workload()), so it is not computed twice.
    void seed_workload_digest(std::uint64_t digest) {
        workload_digest_ = digest;
    }

    void note(std::string line) { log_.push_back(std::move(line)); }
    [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

    // ---- accumulated design decisions ------------------------------------

    codegen::DesignSpec spec;
    std::optional<platform::FpgaReport> fpga_report;

    /// Workload characteristics the PSA strategy consumes (set by the
    /// analysis tasks; see Fig. 3).
    bool allow_single_precision = true;
    double intensity_threshold_x = 4.0; ///< Fig. 3's tunable X

    /// Hotspot detection result (set by the Identify Hotspot Loops task).
    std::optional<ast::Node::Id> hotspot_loop_id;
    std::string hotspot_function;
    double hotspot_fraction = 0.0;
    /// The hotspot loop's focus region; invalidate() drops it.
    std::optional<analysis::FocusProfile> hotspot_region;

    /// Cooperative cancellation token for this flow (not owned; may be
    /// null). The engine polls it between tasks and installs it as the
    /// ambient token around every branch-path job so the interpreter's
    /// periodic poll sees it too; forks inherit the pointer, so one
    /// request's deadline covers all of its paths.
    const CancelToken* cancel = nullptr;

    /// The session's profile cache and persistent store (not owned; null
    /// = none). FlowSession::run stamps them; forks inherit them. The
    /// dynamic analyses profile through the cache, finalize looks designs
    /// up in the store.
    analysis::ProfileCache* profile_cache = nullptr;
    cas::CasStore* store = nullptr;

private:
    /// Takes `reference_source` as the print of the module's original
    /// state instead of printing `module`.
    FlowContext(std::string app_name, ast::ModulePtr module,
                analysis::Workload workload,
                std::optional<std::string> reference_source);

    std::string app_name_;
    ast::ModulePtr module_;
    sema::TypeInfo types_;
    analysis::Workload workload_;
    std::string reference_source_;

    std::optional<analysis::KernelCharacterization> ch_;
    std::optional<analysis::DependenceInfo> outer_dep_;
    double reference_seconds_ = 0.0;
    std::uint64_t workload_digest_ = 0;
    std::vector<std::string> log_;
};

} // namespace psaflow::flow
