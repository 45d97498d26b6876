#include "perf/shape_builder.hpp"

#include <algorithm>
#include <unordered_set>

#include "analysis/dependence.hpp"
#include "ast/walk.hpp"
#include "meta/query.hpp"
#include "support/error.hpp"

namespace psaflow::perf {

using namespace psaflow::ast;
using analysis::KernelCharacterization;

namespace {

/// Count scalar VarDecls and total expression nodes in the kernel.
struct BodyStats {
    int scalar_locals = 0;
    int expr_nodes = 0;
};

BodyStats body_stats(const Function& kernel) {
    BodyStats out;
    std::unordered_set<std::string> seen;
    walk(static_cast<const Node&>(*kernel.body), [&](const Node& n) {
        if (const auto* d = dyn_cast<VarDecl>(&n)) {
            if (!d->is_array && seen.insert(d->name).second)
                ++out.scalar_locals;
        }
        switch (n.kind()) {
            case NodeKind::Binary:
            case NodeKind::Unary:
            case NodeKind::Call:
            case NodeKind::Index:
                ++out.expr_nodes;
                break;
            default:
                break;
        }
        return true;
    });
    return out;
}

} // namespace

int estimate_regs_per_thread(const Function& kernel, bool double_precision) {
    const BodyStats stats = body_stats(kernel);
    // Live scalars need a register pair in double precision; expression
    // trees add temporaries roughly proportional to their size (the
    // compiler keeps several subexpressions in flight).
    const double per_local = double_precision ? 4.0 : 2.0;
    const double per_node = double_precision ? 0.5 : 0.25;
    const double regs = 16.0 + per_local * stats.scalar_locals +
                        per_node * stats.expr_nodes;
    return static_cast<int>(std::min(regs, 255.0));
}

platform::KernelShape
build_kernel_shape(const Function& kernel, const Module& module,
                   const KernelCharacterization& ch,
                   const ShapeOptions& options) {
    const double s = options.relative_scale;
    platform::KernelShape shape;
    shape.flops = ch.flops.at(s);
    shape.footprint_bytes = ch.footprint.at(s);
    shape.stream_bytes = ch.mem_bytes.at(s);
    shape.bytes_in = ch.bytes_in.at(s);
    shape.bytes_out = ch.bytes_out.at(s);
    shape.invocations = static_cast<double>(ch.kernel_calls);
    shape.double_precision = !options.single_precision;
    shape.regs_per_thread =
        estimate_regs_per_thread(kernel, shape.double_precision);

    // ---- parallel iterations: the kernel's outermost loop -----------------
    auto outer_loops =
        meta::outermost_for_loops(const_cast<Function&>(kernel));
    ensure(!outer_loops.empty(),
           "build_kernel_shape: kernel has no outermost loop");
    const For* outer = outer_loops.front();
    if (const auto* lp = ch.loop(outer->id)) {
        shape.parallel_iters = lp->trips_total.at(s);
    } else {
        shape.parallel_iters = 1.0;
    }

    // ---- dependent fraction: flops inside inner loops with *carried*
    // dependencies, as a fraction of kernel flops. Pure scalar reductions
    // are excluded: compilers unroll them into independent accumulators, so
    // they do not starve GPU ILP. -------------------------------------------
    double dep_flops = 0.0;
    for (For* inner : meta::inner_for_loops(*const_cast<For*>(outer))) {
        const auto info = analysis::analyze_dependence(module, *inner);
        if (!info.carried.empty() || !info.array_accumulations.empty()) {
            if (const auto* lp = ch.loop(inner->id)) {
                dep_flops += lp->flops.at(s);
            }
        }
    }
    if (shape.flops > 0.0) {
        shape.dependent_fraction =
            std::clamp(dep_flops / shape.flops, 0.0, 1.0);
        shape.transcendental_fraction =
            std::clamp(ch.call_flops.at(s) / shape.flops, 0.0, 1.0);
    }

    // ---- FPGA pipeline issue rate: iterations of the remaining
    // (non-unrolled) inner loops per outer iteration -------------------------
    double inner_trips_total = 0.0;
    for (For* inner : meta::inner_for_loops(*const_cast<For*>(outer))) {
        if (const auto* lp = ch.loop(inner->id)) {
            // Only innermost levels issue elements through the pipeline;
            // intermediate levels are control. Counting every level's trips
            // overestimates mildly and keeps the model conservative.
            if (meta::inner_for_loops(*inner).empty())
                inner_trips_total += lp->trips_total.at(s);
        }
    }
    const double outer_trips = std::max(1.0, shape.parallel_iters);
    shape.sequential_cycles_per_iter =
        std::max(1.0, inner_trips_total / outer_trips);

    // ---- per-buffer modelling ----------------------------------------------

    // Static access structure: an array whose every subscript advances with
    // the outer induction variable is *streamed* (each outer iteration
    // touches fresh elements, held in registers across inner reuse); an
    // array subscripted independently of the outer variable is *rescanned*
    // every iteration (the N-Body pos[j] pattern) and pays full traffic.
    std::unordered_set<std::string> rescanned;
    walk(static_cast<const Node&>(*outer), [&](const Node& n) {
        const auto* ix = dyn_cast<Index>(&n);
        if (ix == nullptr) return true;
        const auto* base = dyn_cast<Ident>(ix->base.get());
        if (base == nullptr) return true;
        bool uses_outer = false;
        walk(static_cast<const Node&>(*ix->index), [&](const Node& sub) {
            if (const auto* id = dyn_cast<Ident>(&sub)) {
                if (id->name == outer->var) uses_outer = true;
            }
            return !uses_outer;
        });
        if (!uses_outer) rescanned.insert(base->name);
        return true;
    });

    double fpga_traffic = 0.0;
    double shared_saved = 0.0;
    double total_accessed = 0.0;
    double total_extent = 0.0; // summed buffer extents (for GPU staging)
    for (const auto& buf : ch.buffers) {
        const double accessed = buf.accessed.at(s);
        const double footprint = buf.footprint(s);
        total_accessed += accessed;
        total_extent += buf.extent(s);

        // FPGA: small arrays live in BRAM after an initial load; streamed
        // arrays pay their footprint once per kernel invocation; rescanned
        // arrays pay every access.
        if (footprint <= options.fpga_onchip_threshold_bytes) {
            fpga_traffic += footprint;
        } else if (rescanned.count(buf.name) == 0) {
            fpga_traffic += footprint * std::max(1.0, shape.invocations);
        } else {
            fpga_traffic += accessed;
        }

        // GPU shared memory: staged arrays are read once per block from DRAM
        // instead of once per thread.
        if (std::find(options.shared_arrays.begin(),
                      options.shared_arrays.end(),
                      buf.name) != options.shared_arrays.end()) {
            shared_saved += accessed;
        }
    }
    shape.fpga_stream_bytes = fpga_traffic;
    // The generated HIP host wrapper copies read ranges in and written
    // ranges out (directional staging from the data in/out analysis).
    shape.gpu_transfer_bytes = shape.bytes_in + shape.bytes_out;
    (void)total_extent;
    if (total_accessed > 0.0)
        shape.shared_mem_reuse =
            std::clamp(shared_saved / total_accessed, 0.0, 0.98);

    return shape;
}

} // namespace psaflow::perf
