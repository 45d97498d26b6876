// Reproduces Table II: the qualitative comparison of design approaches that
// partition (P), map (M) and/or optimise (O) applications onto specialised
// hardware. The rows are static facts from the paper's related-work survey;
// the "This Work" row is *verified live*: the bench runs the implemented
// PSA-flow and checks that it actually partitions (extracts a hotspot
// kernel), maps (selects a target at branch point A) and optimises (runs
// device-specific DSE) across multiple targets at full-application scope.
#include <iostream>
#include <string>

#include "core/psaflow.hpp"
#include "support/table.hpp"

using namespace psaflow;

int main() {
    flow::FlowSession session(
        flow::session_options({}, cli::load_environment()));
    std::cout << "=== Table II: comparison of design approaches ===\n\n";

    TablePrinter table(
        {"Approach", "P", "M", "O", "Multiple Targets", "Scope"});
    table.add_row({"Cross-Platform Frameworks [1-3]", "", "", "", "yes",
                   "Full App."});
    table.add_row({"HeteroCL [10]", "", "", "yes", "", "Kernel"});
    table.add_row({"Halide [11]", "", "", "yes", "", "Kernel"});
    table.add_row({"Delite [12]", "", "", "yes", "yes", "Full App."});
    table.add_row({"MLIR [13]", "", "", "yes", "yes", "Full App."});
    table.add_row({"HLS DSE [14-16,19]", "", "", "yes", "", "Kernel"});
    table.add_row({"StreamBlocks [20]", "yes", "", "", "", "Full App."});
    table.add_row({"GenMat [21]", "", "yes", "yes", "yes", "Kernel"});
    table.add_row({"Design-Flow Patterns [5]", "yes", "", "yes", "",
                   "Full App."});

    // ---- verify the "This Work" row against the implementation ------------
    RunOptions options;
    options.mode = flow::Mode::Informed;
    auto result = compile(session, apps::nbody(), options);

    bool partitions = false; // hotspot extracted into a kernel function
    bool maps = false;       // branch point A selected a target
    bool optimises = false;  // a DSE task ran
    for (const auto& d : result.designs) {
        if (!d.spec.kernel_name.empty()) partitions = true;
        if (d.spec.target != codegen::TargetKind::None) maps = true;
        if (d.spec.block_size > 0 || d.spec.unroll > 0 ||
            d.spec.omp_threads > 0)
            optimises = true;
    }
    // Multiple targets: the uninformed flow generates OMP+HIP+oneAPI designs.
    RunOptions uninformed;
    uninformed.mode = flow::Mode::Uninformed;
    auto all = compile(session, apps::nbody(), uninformed);
    int targets_seen = 0;
    bool saw[3] = {false, false, false};
    for (const auto& d : all.designs) {
        int idx = -1;
        switch (d.spec.target) {
            case codegen::TargetKind::CpuOpenMp: idx = 0; break;
            case codegen::TargetKind::CpuGpu: idx = 1; break;
            case codegen::TargetKind::CpuFpga: idx = 2; break;
            default: break;
        }
        if (idx >= 0 && !saw[idx]) {
            saw[idx] = true;
            ++targets_seen;
        }
    }

    table.add_separator();
    table.add_row({"This Work (verified live)", partitions ? "yes" : "NO",
                   maps ? "yes" : "NO", optimises ? "yes" : "NO",
                   targets_seen >= 3 ? "yes" : "NO", "Full App."});
    table.print(std::cout);

    std::cout << "\n'This Work' cells verified by running the implemented "
                 "PSA-flow on N-Body:\n";
    std::cout << "  P: hotspot loop extracted into a kernel function — "
              << (partitions ? "confirmed" : "FAILED") << "\n";
    std::cout << "  M: branch point A selected a target automatically — "
              << (maps ? "confirmed" : "FAILED") << "\n";
    std::cout << "  O: device-specific DSE chose launch/unroll/thread "
                 "parameters — "
              << (optimises ? "confirmed" : "FAILED") << "\n";
    std::cout << "  Multiple targets: uninformed flow produced "
              << targets_seen << "/3 target families\n";
    return 0;
}
