#include "analysis/characterize.hpp"

#include <cmath>

#include "analysis/profile_cache.hpp"
#include "ast/walk.hpp"
#include "meta/query.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace psaflow::analysis {

using namespace psaflow::ast;

namespace {

/// Fit q(s) = base * s^k from observations at s=1 and s=2.
ScaledQuantity fit(double at_1x, double at_2x) {
    ScaledQuantity q;
    q.base = at_1x;
    if (at_1x > 0.0 && at_2x > 0.0) {
        q.exponent = std::log2(at_2x / at_1x);
        // Clamp tiny negative exponents from measurement noise on
        // scale-independent quantities.
        if (std::abs(q.exponent) < 1e-9) q.exponent = 0.0;
    }
    return q;
}

} // namespace

double ScaledQuantity::at(double relative_scale) const {
    ensure(relative_scale > 0.0, "ScaledQuantity: scale must be positive");
    return base * std::pow(relative_scale, exponent);
}

double KernelCharacterization::flops_per_byte(double relative_scale) const {
    const double bytes = footprint.at(relative_scale);
    if (bytes <= 0.0) return 0.0;
    return flops.at(relative_scale) / bytes;
}

const LoopProfile* KernelCharacterization::loop(Node::Id id) const {
    for (const auto& l : loops) {
        if (l.loop_id == id) return &l;
    }
    return nullptr;
}

KernelCharacterization characterize_kernel(Module& module,
                                           const sema::TypeInfo& types,
                                           const std::string& kernel,
                                           const Workload& workload) {
    Function* kernel_fn = module.find_function(kernel);
    ensure(kernel_fn != nullptr,
           "characterize_kernel: no function '" + kernel + "' in module");

    // Both runs go through the profile cache: a real interpreter run shows
    // up as a nested engine-tagged "run_function:" span, a hit does not.
    trace::ScopedSpan span("characterize:" + kernel, "analysis");

    auto profile_at = [&](double scale) {
        interp::InterpOptions opt;
        opt.profile = true;
        opt.focus_function = kernel;
        return ProfileCache::global().run(module, types, workload.entry,
                                          workload.make_args(scale), opt);
    };

    const double s1 = workload.profile_scale;
    const interp::ExecutionProfile p1 = profile_at(s1);
    const interp::ExecutionProfile p2 = profile_at(2.0 * s1);
    span.set_work_units(p1.total_cost + p2.total_cost);

    ensure(p1.focus_calls > 0, "characterize_kernel: kernel '" + kernel +
                                   "' was never called by the workload");

    KernelCharacterization ch;
    ch.kernel = kernel;
    ch.flops = fit(p1.focus_flops, p2.focus_flops);
    ch.call_flops = fit(p1.focus_call_flops, p2.focus_call_flops);
    ch.mem_bytes = fit(p1.focus_mem_bytes, p2.focus_mem_bytes);
    ch.cpu_cost = fit(p1.focus_cost, p2.focus_cost);
    ch.bytes_in = fit(static_cast<double>(p1.focus_bytes_in()),
                      static_cast<double>(p2.focus_bytes_in()));
    ch.bytes_out = fit(static_cast<double>(p1.focus_bytes_out()),
                       static_cast<double>(p2.focus_bytes_out()));
    ch.footprint =
        fit(static_cast<double>(p1.focus_bytes_in() + p1.focus_bytes_out()),
            static_cast<double>(p2.focus_bytes_in() + p2.focus_bytes_out()));
    ch.args_alias = p1.focus_args_alias || p2.focus_args_alias;
    ch.kernel_calls = p1.focus_calls;
    for (const auto& b1 : p1.focus_buffers) {
        const interp::BufferAccess* b2 = nullptr;
        for (const auto& cand : p2.focus_buffers) {
            if (cand.buffer_name == b1.buffer_name) b2 = &cand;
        }
        if (b2 == nullptr) continue;
        KernelCharacterization::BufferProfile bp;
        bp.name = b1.buffer_name;
        bp.elem_bytes = b1.elem_bytes;
        bp.bytes_in = fit(static_cast<double>(b1.bytes_in()),
                          static_cast<double>(b2->bytes_in()));
        bp.bytes_out = fit(static_cast<double>(b1.bytes_out()),
                           static_cast<double>(b2->bytes_out()));
        bp.accessed =
            fit(static_cast<double>(b1.reads + b1.writes) * b1.elem_bytes,
                static_cast<double>(b2->reads + b2->writes) * b2->elem_bytes);
        ch.buffers.push_back(bp);
    }

    // Per-loop trip-count laws, outer-first (pre-order).
    for (For* loop : meta::for_loops(*kernel_fn)) {
        const interp::LoopStats* s1_stats = p1.loop(loop->id);
        const interp::LoopStats* s2_stats = p2.loop(loop->id);
        if (s1_stats == nullptr || s2_stats == nullptr) continue;
        LoopProfile lp;
        lp.loop_id = loop->id;
        lp.entries = s1_stats->entries;
        lp.trips_per_entry =
            fit(s1_stats->avg_trip_count(), s2_stats->avg_trip_count());
        lp.trips_total = fit(static_cast<double>(s1_stats->trips),
                             static_cast<double>(s2_stats->trips));
        lp.flops = fit(s1_stats->flops, s2_stats->flops);
        ch.loops.push_back(lp);
    }
    return ch;
}

} // namespace psaflow::analysis
