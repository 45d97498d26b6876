#include "flow/context.hpp"

#include <algorithm>

#include "analysis/hotspot.hpp"
#include "analysis/profile_cache.hpp"
#include "ast/clone.hpp"
#include "ast/printer.hpp"
#include "codegen/emit_util.hpp"
#include "meta/query.hpp"
#include "perf/estimator.hpp"
#include "support/cas/cas.hpp"
#include "support/error.hpp"

namespace psaflow::flow {

namespace {

/// `ch` (of module `from`) with each loop id replaced by the id of the
/// loop at the same pre-order position in `to`'s kernel; nullopt when the
/// two kernels' loops do not correspond.
std::optional<analysis::KernelCharacterization>
remap_loops(const analysis::KernelCharacterization& ch, ast::Module& from,
            ast::Module& to) {
    ast::Function* from_fn = from.find_function(ch.kernel);
    ast::Function* to_fn = to.find_function(ch.kernel);
    if (from_fn == nullptr || to_fn == nullptr) return std::nullopt;
    // The clone has the same loops in the same pre-order, under new ids.
    const std::vector<ast::For*> old_loops = meta::for_loops(*from_fn);
    const std::vector<ast::For*> new_loops = meta::for_loops(*to_fn);
    if (old_loops.size() != new_loops.size()) return std::nullopt;
    analysis::KernelCharacterization out = ch;
    for (analysis::LoopProfile& lp : out.loops) {
        const auto it = std::find_if(
            old_loops.begin(), old_loops.end(),
            [&](const ast::For* f) { return f->id == lp.loop_id; });
        if (it == old_loops.end()) return std::nullopt;
        lp.loop_id = new_loops[static_cast<std::size_t>(
                                   it - old_loops.begin())]->id;
    }
    return out;
}

} // namespace

FlowContext::FlowContext(std::string app_name, ast::ModulePtr source_module,
                         analysis::Workload workload)
    : FlowContext(std::move(app_name), std::move(source_module),
                  std::move(workload), std::nullopt) {}

FlowContext::FlowContext(std::string app_name, ast::ModulePtr module,
                         analysis::Workload workload,
                         std::optional<std::string> reference_source)
    : app_name_(std::move(app_name)), module_(std::move(module)),
      workload_(std::move(workload)) {
    ensure(module_ != nullptr, "FlowContext: null module");
    types_ = sema::check(*module_);
    reference_source_ = reference_source.has_value()
                            ? std::move(*reference_source)
                            : ast::to_source(*module_);
    spec.app_name = app_name_;
}

FlowContext FlowContext::fork() const {
    // The fork keeps the original's reference print: printing the clone
    // would only be thrown away.
    FlowContext out(app_name_, ast::clone_module(*module_), workload_,
                    reference_source_);
    out.spec = spec;
    out.fpga_report = fpga_report;
    out.allow_single_precision = allow_single_precision;
    out.intensity_threshold_x = intensity_threshold_x;
    out.reference_seconds_ = reference_seconds_;
    out.workload_digest_ = workload_digest_;
    out.log_ = log_;
    out.cancel = cancel;
    out.profile_cache = profile_cache;
    out.store = store;
    if (ch_.has_value()) out.ch_ = remap_loops(*ch_, *module_, *out.module_);
    // outer_dep_ is keyed by node ids, which the clone regenerated:
    // recomputed lazily on demand.
    return out;
}

ast::Function& FlowContext::kernel() const {
    ensure(has_kernel(), "FlowContext: hotspot has not been extracted yet");
    ast::Function* fn = module_->find_function(spec.kernel_name);
    ensure(fn != nullptr,
           "FlowContext: kernel '" + spec.kernel_name + "' missing");
    return *fn;
}

ast::For& FlowContext::outer_loop() const {
    return codegen::kernel_outer_loop(kernel());
}

void FlowContext::invalidate() {
    types_ = sema::check(*module_);
    ch_.reset();
    outer_dep_.reset();
    hotspot_region.reset();
}

void FlowContext::kernel_extracted() {
    const std::optional<analysis::FocusProfile> region =
        std::move(hotspot_region);
    invalidate();
    ch_ = analysis::characterize_kernel(
        *module_, types_, spec.kernel_name, workload_, profile_cache,
        region.has_value() ? &*region : nullptr);
}

const analysis::KernelCharacterization& FlowContext::characterization() {
    if (!ch_.has_value()) {
        ch_ = analysis::characterize_kernel(
            *module_, types_, spec.kernel_name, workload_, profile_cache);
    }
    return *ch_;
}

const analysis::DependenceInfo& FlowContext::outer_dependence() {
    if (!outer_dep_.has_value()) {
        outer_dep_ = analysis::analyze_dependence(*module_, outer_loop());
    }
    return *outer_dep_;
}

platform::KernelShape FlowContext::shape() {
    perf::ShapeOptions opt;
    opt.relative_scale = relative_scale();
    opt.single_precision = spec.single_precision;
    opt.shared_arrays = spec.shared_arrays;
    return perf::build_kernel_shape(kernel(), *module_, characterization(),
                                    opt);
}

std::uint64_t workload_digest(const analysis::Workload& workload) {
    cas::Hasher h;
    h.str("workload");
    h.str(workload.entry);
    h.real(workload.profile_scale);
    h.real(workload.eval_scale);
    // Hash the argument contents at the two scales the dynamic analyses
    // actually execute (scaling-law fitting runs at 2x profile scale).
    h.u64(analysis::digest_args(workload.make_args(workload.profile_scale)));
    h.u64(analysis::digest_args(
        workload.make_args(2.0 * workload.profile_scale)));
    const std::uint64_t digest = h.digest();
    return digest == 0 ? 1 : digest; // 0 marks "not yet computed"
}

std::uint64_t FlowContext::workload_digest() {
    if (workload_digest_ == 0)
        workload_digest_ = flow::workload_digest(workload_);
    return workload_digest_;
}

double FlowContext::reference_seconds() {
    if (reference_seconds_ == 0.0) {
        // Captured from the current state; the flow computes this right
        // after extraction, before any target-specific transform.
        reference_seconds_ = perf::cpu_reference_seconds(shape());
    }
    return reference_seconds_;
}

} // namespace psaflow::flow
