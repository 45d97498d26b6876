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

FocusProfile focus_profile(const interp::ExecutionProfile& profile,
                           const interp::FocusStats& focus, Node& root) {
    FocusProfile out;
    out.focus = focus;
    for (const For* loop : meta::for_loops(root)) {
        const interp::LoopStats* stats = profile.loop(loop->id);
        out.loops.push_back(stats != nullptr
                                ? std::optional<interp::LoopStats>(*stats)
                                : std::nullopt);
    }
    return out;
}

KernelCharacterization characterize_kernel(Module& module,
                                           const sema::TypeInfo& types,
                                           const std::string& kernel,
                                           const Workload& workload,
                                           ProfileCache* cache,
                                           const FocusProfile* at_profile_scale) {
    Function* kernel_fn = module.find_function(kernel);
    ensure(kernel_fn != nullptr,
           "characterize_kernel: no function '" + kernel + "' in module");

    // Both runs go through the profile cache: a real interpreter run shows
    // up as a nested "run_function:" span (interp:vm), a hit does not.
    trace::ScopedSpan span("characterize:" + kernel, "analysis");

    double work = 0.0;
    auto observe = [&](double scale) {
        interp::InterpOptions opt;
        opt.profile = true;
        opt.focus_function = kernel;
        const interp::ExecutionProfile p =
            profile_run(cache, module, types, workload.entry,
                        workload.make_args(scale), opt);
        work += p.total_cost;
        return focus_profile(p, p.focus, *kernel_fn);
    };

    const std::vector<For*> kernel_loops = meta::for_loops(*kernel_fn);
    const double s1 = workload.profile_scale;
    FocusProfile observed_1x;
    const FocusProfile* p1 = at_profile_scale;
    if (p1 == nullptr || p1->loops.size() != kernel_loops.size()) {
        observed_1x = observe(s1);
        p1 = &observed_1x;
    }
    const FocusProfile p2 = observe(2.0 * s1);
    span.set_work_units(work);

    const interp::FocusStats& f1 = p1->focus;
    const interp::FocusStats& f2 = p2.focus;
    ensure(f1.calls > 0, "characterize_kernel: kernel '" + kernel +
                             "' was never called by the workload");

    KernelCharacterization ch;
    ch.kernel = kernel;
    ch.flops = fit(f1.flops, f2.flops);
    ch.call_flops = fit(f1.call_flops, f2.call_flops);
    ch.mem_bytes = fit(f1.mem_bytes, f2.mem_bytes);
    ch.cpu_cost = fit(f1.cost, f2.cost);
    ch.bytes_in = fit(static_cast<double>(f1.bytes_in()),
                      static_cast<double>(f2.bytes_in()));
    ch.bytes_out = fit(static_cast<double>(f1.bytes_out()),
                       static_cast<double>(f2.bytes_out()));
    ch.footprint = fit(static_cast<double>(f1.bytes_in() + f1.bytes_out()),
                       static_cast<double>(f2.bytes_in() + f2.bytes_out()));
    ch.args_alias = f1.args_alias || f2.args_alias;
    ch.kernel_calls = f1.calls;
    for (const auto& b1 : f1.buffers) {
        const interp::BufferAccess* b2 = nullptr;
        for (const auto& cand : f2.buffers) {
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
    for (std::size_t i = 0; i < kernel_loops.size(); ++i) {
        const std::optional<interp::LoopStats>& s1_stats = p1->loops[i];
        const std::optional<interp::LoopStats>& s2_stats = p2.loops[i];
        if (!s1_stats.has_value() || !s2_stats.has_value()) continue;
        LoopProfile lp;
        lp.loop_id = kernel_loops[i]->id;
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
