#include "flow/context.hpp"

#include "analysis/hotspot.hpp"
#include "analysis/profile_cache.hpp"
#include "ast/clone.hpp"
#include "ast/printer.hpp"
#include "codegen/emit_util.hpp"
#include "perf/estimator.hpp"
#include "support/cas/cas.hpp"
#include "support/error.hpp"

namespace psaflow::flow {

FlowContext::FlowContext(std::string app_name, ast::ModulePtr source_module,
                         analysis::Workload workload)
    : app_name_(std::move(app_name)), module_(std::move(source_module)),
      workload_(std::move(workload)) {
    ensure(module_ != nullptr, "FlowContext: null module");
    types_ = sema::check(*module_);
    reference_source_ = ast::to_source(*module_);
    spec.app_name = app_name_;
}

FlowContext FlowContext::fork() const {
    FlowContext out(app_name_, ast::clone_module(*module_), workload_);
    out.reference_source_ = reference_source_;
    out.spec = spec;
    out.fpga_report = fpga_report;
    out.allow_single_precision = allow_single_precision;
    out.intensity_threshold_x = intensity_threshold_x;
    out.reference_seconds_ = reference_seconds_;
    out.workload_digest_ = workload_digest_;
    out.log_ = log_;
    out.cancel = cancel;
    // ch_/outer_dep_ are keyed by node ids, which the clone regenerated:
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
}

const analysis::KernelCharacterization& FlowContext::characterization() {
    if (!ch_.has_value()) {
        ch_ = analysis::characterize_kernel(*module_, types_,
                                            spec.kernel_name, workload_);
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

std::uint64_t FlowContext::workload_digest() {
    if (workload_digest_ == 0) {
        cas::Hasher h;
        h.str("workload");
        h.str(workload_.entry);
        h.real(workload_.profile_scale);
        h.real(workload_.eval_scale);
        // Hash the argument contents at the two scales the dynamic analyses
        // actually execute (scaling-law fitting runs at 2x profile scale).
        h.u64(analysis::digest_args(
            workload_.make_args(workload_.profile_scale)));
        h.u64(analysis::digest_args(
            workload_.make_args(2.0 * workload_.profile_scale)));
        workload_digest_ = h.digest();
        if (workload_digest_ == 0) workload_digest_ = 1; // keep memoizable
    }
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
