// Kernel characterisation: the bundle of target-independent analyses the
// PSA strategy consumes at branch point A (paper Fig. 3 / Fig. 4):
//
//   - Pointer Analysis          (dynamic)  -> args_alias
//   - Arithmetic Intensity      (static+dynamic) -> flops_per_byte
//   - Data In/Out Analysis      (dynamic)  -> bytes_in / bytes_out
//   - Loop Trip-Count Analysis  (dynamic)  -> per-loop trip counts
//   - scaling-law fit: the kernel is profiled at two scales and per-quantity
//     power laws q(s) = q1 * s^k are fitted, so paper-sized workloads can be
//     evaluated without interpreting them (the interpreter pays a ~100x
//     constant factor versus native execution).
//
// The profile-scale observations need no run of their own when the kernel
// was just extracted: the hotspot run profiled its loop as a focus region
// (detect_hotspots), and a region observes exactly what the extracted
// kernel's function focus would.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/workload.hpp"
#include "ast/nodes.hpp"
#include "interp/profile.hpp"
#include "sema/type_check.hpp"

namespace psaflow::analysis {

/// A quantity together with its fitted growth exponent: at workload scale s
/// (relative to profile scale), value(s) = base * s^exponent.
struct ScaledQuantity {
    double base = 0.0;     ///< observed at profile scale
    double exponent = 0.0; ///< fitted from profile scale and 2x profile scale

    [[nodiscard]] double at(double relative_scale) const;
};

/// Per-loop dynamic shape.
struct LoopProfile {
    ast::Node::Id loop_id = 0;
    ScaledQuantity trips_per_entry; ///< average trip count of one entry
    ScaledQuantity trips_total;     ///< total iterations per run
    ScaledQuantity flops;           ///< flops attributed (incl. nested)
    long long entries = 0;          ///< entries at profile scale
};

struct KernelCharacterization {
    std::string kernel;

    // Work (hotspot region, per application run).
    ScaledQuantity flops;
    ScaledQuantity call_flops; ///< flops from builtin math (transcendentals)
    ScaledQuantity mem_bytes;   ///< bytes touched by array accesses
    ScaledQuantity footprint;   ///< unique bytes in+out (transfer footprint)
    ScaledQuantity bytes_in;    ///< host->device transfer requirement
    ScaledQuantity bytes_out;   ///< device->host transfer requirement
    ScaledQuantity cpu_cost;    ///< interpreter cost units of the hotspot

    /// Arithmetic intensity against the streaming footprint (FLOPs/B). This
    /// is the paper's compute- vs memory-bound discriminator.
    [[nodiscard]] double flops_per_byte(double relative_scale = 1.0) const;

    /// Dynamic pointer-alias result: true when any two pointer arguments of
    /// a kernel call named the same buffer.
    bool args_alias = false;

    /// Trip counts per loop in the kernel, ordered outer-first.
    std::vector<LoopProfile> loops;

    [[nodiscard]] const LoopProfile* loop(ast::Node::Id id) const;

    /// Per-buffer scaling laws (fitted like the kernel-level quantities),
    /// for transfer sizing and on-chip-buffering decisions. A constant-size
    /// buffer (e.g. the centroid table of K-Means) has exponent 0 and stays
    /// recognisably small at any evaluation scale.
    struct BufferProfile {
        std::string name;       ///< kernel parameter name
        int elem_bytes = 0;
        ScaledQuantity bytes_in;   ///< read-range extent
        ScaledQuantity bytes_out;  ///< written-range extent
        ScaledQuantity accessed;   ///< raw bytes touched (reads+writes)

        [[nodiscard]] double footprint(double s) const {
            return bytes_in.at(s) + bytes_out.at(s);
        }
        [[nodiscard]] double extent(double s) const {
            return std::max(bytes_in.at(s), bytes_out.at(s));
        }
    };
    std::vector<BufferProfile> buffers;

    /// Invocations of the kernel per application run at profile scale.
    long long kernel_calls = 0;
};

/// What one focus observed, in the form characterisation fits: its
/// FocusStats and the LoopStats of the focused code's loops in pre-order
/// (nullopt for a loop that never ran). Loops are keyed by position, not
/// node id, so the observations of a loop's focus region carry over to the
/// kernel extracted from that loop.
struct FocusProfile {
    interp::FocusStats focus;
    std::vector<std::optional<interp::LoopStats>> loops;

    bool operator==(const FocusProfile&) const = default;
};

/// `focus` together with `profile`'s stats for the loops under `root` (the
/// focused loop or function), in meta::for_loops order.
[[nodiscard]] FocusProfile focus_profile(const interp::ExecutionProfile& profile,
                                         const interp::FocusStats& focus,
                                         ast::Node& root);

class ProfileCache;

/// Profile `module`'s function `kernel` under `workload` at two scales and
/// fit scaling laws. The module must already contain the extracted kernel
/// (called from the application entry). Both runs go through `cache` when
/// one is given. `at_profile_scale`, when given, are the observations at
/// the profile scale — the focus region of the loop the kernel was
/// extracted from — and replace that run; ignored unless they cover
/// exactly the kernel's loops.
[[nodiscard]] KernelCharacterization
characterize_kernel(ast::Module& module, const sema::TypeInfo& types,
                    const std::string& kernel, const Workload& workload,
                    ProfileCache* cache = nullptr,
                    const FocusProfile* at_profile_scale = nullptr);

} // namespace psaflow::analysis
