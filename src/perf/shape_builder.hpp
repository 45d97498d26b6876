// Builds the device-independent KernelShape from the dynamic kernel
// characterisation plus the static structure of (this design variant of)
// the kernel. Every quantity is extrapolated from profile scale to the
// requested evaluation scale with the fitted power laws.
#pragma once

#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "ast/nodes.hpp"
#include "platform/kernel_shape.hpp"

namespace psaflow::perf {

struct ShapeOptions {
    /// Evaluation scale relative to profile scale.
    double relative_scale = 1.0;
    /// The design computes in single precision (SP transforms applied).
    bool single_precision = false;
    /// Arrays staged in GPU shared memory (from the shared-mem annotation).
    std::vector<std::string> shared_arrays;
    /// Arrays whose footprint fits on-chip FPGA BRAM are buffered there and
    /// do not generate DDR traffic beyond the initial load.
    double fpga_onchip_threshold_bytes = 256.0 * 1024.0;
    /// (internal) names of kernel arrays rescanned every outer iteration;
    /// filled by build_kernel_shape from static access structure.
};

/// Assemble a KernelShape for `kernel` (in its current, possibly
/// transformed, form) from `ch`. `ch` must have been produced by
/// characterize_kernel on the same module state.
[[nodiscard]] platform::KernelShape
build_kernel_shape(const ast::Function& kernel, const ast::Module& module,
                   const analysis::KernelCharacterization& ch,
                   const ShapeOptions& options);

/// Register-pressure estimate for one thread executing the body of the
/// kernel's outer loop: parameters + live locals + expression temporaries,
/// doubled for double precision. Deterministic and documented — this is
/// the lever that reproduces the paper's "255 registers per thread" Rush
/// Larsen observation.
[[nodiscard]] int estimate_regs_per_thread(const ast::Function& kernel,
                                           bool double_precision);

} // namespace psaflow::perf
