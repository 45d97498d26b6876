// Ablation study of the Fig. 3 PSA strategy at branch point A.
//
// The paper's claim is that the informed strategy "selects the best target
// for all of the five benchmarks". This bench quantifies what that is worth
// by comparing four selection policies:
//   - informed      : the Fig. 3 decision tree (one design per app);
//   - uninformed    : generate everything, keep the best (oracle; 5x cost);
//   - always-GPU    : fixed CPU+GPU mapping (RTX 2080 Ti);
//   - always-FPGA   : fixed CPU+FPGA mapping (Stratix10);
//   - always-OMP    : fixed multi-thread CPU mapping.
// For each policy it reports the achieved speedup and the regret versus the
// oracle. It also prints the decision inputs the strategy consumed
// (arithmetic intensity, transfer-vs-CPU time, loop structure) per app —
// the values flowing through the yellow hexagon of Fig. 3.
#include <iostream>
#include <string>

#include "core/psaflow.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace psaflow;

namespace {

double policy_speedup(const flow::FlowResult& all, codegen::TargetKind target,
                      platform::DeviceId device) {
    const auto* d = all.find(target, device);
    return d != nullptr && d->synthesizable ? d->speedup : 0.0;
}

} // namespace

int main() {
    flow::FlowSession session(
        flow::session_options({}, cli::load_environment()));
    std::cout << "=== Fig. 3 ablation: value of the informed PSA strategy "
                 "===\n\n";

    TablePrinter table({"Application", "informed", "oracle (uninformed)",
                        "always-GPU", "always-FPGA", "always-OMP"});

    double regret_informed = 0.0;
    double regret_gpu = 0.0;
    double regret_fpga = 0.0;
    double regret_omp = 0.0;
    int apps_count = 0;

    for (const apps::Application* app : apps::all_applications()) {
        RunOptions informed_opt;
        informed_opt.mode = flow::Mode::Informed;
        auto informed = compile(session, *app, informed_opt);

        RunOptions uninformed_opt;
        uninformed_opt.mode = flow::Mode::Uninformed;
        auto all = compile(session, *app, uninformed_opt);

        const double s_informed =
            informed.best() != nullptr ? informed.best()->speedup : 0.0;
        const double s_oracle =
            all.best() != nullptr ? all.best()->speedup : 0.0;
        const double s_gpu = policy_speedup(all, codegen::TargetKind::CpuGpu,
                                            platform::DeviceId::Rtx2080Ti);
        const double s_fpga = policy_speedup(
            all, codegen::TargetKind::CpuFpga, platform::DeviceId::Stratix10);
        const double s_omp = policy_speedup(all, codegen::TargetKind::CpuOpenMp,
                                            platform::DeviceId::Epyc7543);

        table.add_row({app->name, format_compact(s_informed, 3) + "x",
                       format_compact(s_oracle, 3) + "x",
                       s_gpu > 0 ? format_compact(s_gpu, 3) + "x" : "overmap",
                       s_fpga > 0 ? format_compact(s_fpga, 3) + "x"
                                  : "overmap",
                       format_compact(s_omp, 3) + "x"});

        if (s_oracle > 0.0) {
            regret_informed += 1.0 - s_informed / s_oracle;
            regret_gpu += 1.0 - s_gpu / s_oracle;
            regret_fpga += 1.0 - s_fpga / s_oracle;
            regret_omp += 1.0 - s_omp / s_oracle;
            ++apps_count;
        }

        // Decision inputs (re-derived exactly as the strategy sees them).
        std::cout << "[" << app->name << "] decision inputs: ";
        const auto* best = informed.best();
        if (best != nullptr) {
            for (const auto& line : best->log) {
                if (line.find("PSA (A)") != std::string::npos)
                    std::cout << line;
            }
        }
        std::cout << "\n";
    }

    std::cout << "\n";
    table.print(std::cout);

    auto pct = [&](double r) {
        return format_compact(100.0 * r / apps_count, 3) + "%";
    };
    std::cout << "\nmean regret vs oracle (lower is better):\n";
    std::cout << "  informed (Fig. 3): " << pct(regret_informed) << "\n";
    std::cout << "  always-GPU:        " << pct(regret_gpu) << "\n";
    std::cout << "  always-FPGA:       " << pct(regret_fpga) << "\n";
    std::cout << "  always-OMP:        " << pct(regret_omp) << "\n";
    std::cout << "\nThe informed strategy should have (near-)zero regret: "
                 "one flow run per app\nmatches the oracle that builds all "
                 "five designs.\n";
    return 0;
}
