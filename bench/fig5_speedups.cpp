// Reproduces Fig. 5: hotspot-region speedups of every auto-generated design
// versus the single-thread CPU reference, for all five benchmarks, in both
// PSA-flow modes:
//   - Uninformed: branch point A selects all paths -> five designs per app;
//   - Informed:   the Fig. 3 strategy selects one target -> the
//                 "Auto-Selected" bar.
// Also prints the per-claim checks of Section IV-B (RTX vs GTX ratios,
// Stratix10 vs Arria10, Rush Larsen FPGA overmap, informed = best target).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/psaflow.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

using namespace psaflow;

namespace {

std::string cell(double measured, double paper) {
    if (paper < 0.0) return "n/a";
    return format_compact(measured, 3) + "x (paper " +
           format_compact(paper, 3) + "x)";
}

double speedup_value(const flow::FlowResult& result,
                     codegen::TargetKind target, platform::DeviceId device) {
    const auto* d = result.find(target, device);
    return (d != nullptr && d->synthesizable) ? d->speedup : -1.0;
}

} // namespace

int main() {
    flow::FlowSession session(
        flow::session_options({}, cli::load_environment()));
    std::cout << "=== Fig. 5: accelerated hotspot region speedups vs "
                 "single-thread CPU ===\n\n";
    const auto wall_start = std::chrono::steady_clock::now();

    TablePrinter table({"Application", "Auto-Selected", "OMP", "HIP 1080Ti",
                        "HIP 2080Ti", "oneAPI A10", "oneAPI S10"});
    bool informed_always_best = true;
    std::string claims;

    for (const apps::Application* app : apps::all_applications()) {
        RunOptions uninformed_opt;
        uninformed_opt.mode = flow::Mode::Uninformed;
        auto uninformed = compile(session, *app, uninformed_opt);

        RunOptions informed_opt;
        informed_opt.mode = flow::Mode::Informed;
        auto informed = compile(session, *app, informed_opt);

        const auto* auto_design = informed.best();
        const double auto_speedup =
            auto_design != nullptr ? auto_design->speedup : 0.0;
        const auto* best_any = uninformed.best();

        using codegen::TargetKind;
        using platform::DeviceId;
        table.add_row({
            app->name,
            format_compact(auto_speedup, 3) + "x (paper " +
                format_compact(app->paper.auto_selected, 3) + "x, " +
                app->paper.auto_target + ")",
            cell(speedup_value(uninformed, TargetKind::CpuOpenMp,
                               DeviceId::Epyc7543),
                 app->paper.omp),
            cell(speedup_value(uninformed, TargetKind::CpuGpu,
                               DeviceId::Gtx1080Ti),
                 app->paper.gpu_1080),
            cell(speedup_value(uninformed, TargetKind::CpuGpu,
                               DeviceId::Rtx2080Ti),
                 app->paper.gpu_2080),
            cell(speedup_value(uninformed, TargetKind::CpuFpga,
                               DeviceId::Arria10),
                 app->paper.fpga_a10),
            cell(speedup_value(uninformed, TargetKind::CpuFpga,
                               DeviceId::Stratix10),
                 app->paper.fpga_s10),
        });

        // --- per-claim checks -------------------------------------------------
        if (auto_design != nullptr && best_any != nullptr) {
            const bool matches =
                auto_design->spec.target == best_any->spec.target;
            if (!matches) informed_always_best = false;
            claims += "  [" + app->name + "] informed PSA selected " +
                      std::string(codegen::to_string(auto_design->spec.target)) +
                      " (paper: " + app->paper.auto_target + "); best design " +
                      "across all targets is " +
                      std::string(codegen::to_string(best_any->spec.target)) +
                      (matches ? "  -- MATCH\n" : "  -- MISMATCH\n");
        }
        const double g1080 = speedup_value(uninformed, TargetKind::CpuGpu,
                                           DeviceId::Gtx1080Ti);
        const double g2080 = speedup_value(uninformed, TargetKind::CpuGpu,
                                           DeviceId::Rtx2080Ti);
        if (g1080 > 0 && g2080 > 0) {
            claims += "  [" + app->name + "] RTX 2080 Ti / GTX 1080 Ti = " +
                      format_compact(g2080 / g1080, 3) + "x (paper " +
                      format_compact(app->paper.gpu_2080 /
                                         app->paper.gpu_1080, 3) +
                      "x)\n";
        }
        const auto* a10 = uninformed.find(TargetKind::CpuFpga,
                                          DeviceId::Arria10);
        const auto* s10 = uninformed.find(TargetKind::CpuFpga,
                                          DeviceId::Stratix10);
        if (app->name == "rushlarsen") {
            const bool a10_overmap = a10 != nullptr && !a10->synthesizable;
            const bool s10_overmap = s10 != nullptr && !s10->synthesizable;
            claims += std::string("  [rushlarsen] FPGA designs overmap: ") +
                      "A10=" + (a10_overmap ? "yes" : "NO (paper: yes)") +
                      ", S10=" + (s10_overmap ? "yes" : "NO (paper: yes)") +
                      "\n";
        }
    }

    table.print(std::cout);
    std::cout << "\n=== Section IV-B claims ===\n" << claims;
    std::cout << "\ninformed PSA selects the best target for all "
                 "benchmarks: "
              << (informed_always_best ? "yes (paper: yes)" : "NO") << "\n";

    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const auto& reg = trace::Registry::global();
    std::cout << "\n=== harness cost (" << format_compact(wall_s, 4)
              << " s wall clock, jobs="
              << (session.options().jobs > 0 ? session.options().jobs
                                             : ThreadPool::default_jobs())
              << ") ===\n"
              << "  interpreter runs: " << reg.counter("interp.runs")
              << " (" << reg.counter("interp.steps") << " steps)\n"
              << "  profile cache:    " << reg.counter("profile_cache.hits")
              << " hits / " << reg.counter("profile_cache.misses")
              << " misses\n";
    return 0;
}
