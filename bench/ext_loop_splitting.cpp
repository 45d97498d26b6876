// Extension experiment (the paper's stated future work, Section IV-B.iii):
// "additional strategies, like finer partitioning (e.g. loop splitting) and
// more effective resource area reduction, need to be incorporated into the
// PSA-flow. However, these adjustments may potentially impact performance
// negatively."
//
// This bench implements exactly that scenario: the Rush Larsen kernel —
// which overmaps both FPGAs at unroll 1 — is split with transform::
// split_kernel (scalars live across the cut spill through per-cell arrays)
// until every part fits the device, then the combined design is priced with
// the FPGA model. The output quantifies the predicted performance impact:
// the split design is synthesizable but pays extra DDR traffic for the
// spills and one pipeline pass per part, and still loses to the GPU design
// the informed PSA picks.
#include <iostream>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "analysis/hotspot.hpp"
#include "core/psaflow.hpp"
#include "frontend/parser.hpp"
#include "perf/estimator.hpp"
#include "perf/shape_builder.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "transform/extract.hpp"
#include "transform/fission.hpp"

using namespace psaflow;

namespace {

struct PartEstimate {
    std::string name;
    int unroll = 0;
    double utilisation = 0.0;
    double seconds = 0.0;
    int spilled = 0;
};

} // namespace

int main() {
    flow::FlowSession session(
        flow::session_options({}, cli::load_environment()));
    const auto& app = apps::rush_larsen();
    std::cout << "=== extension: loop splitting for the Rush Larsen FPGA "
                 "designs ===\n\n";

    for (platform::DeviceId device :
         {platform::DeviceId::Arria10, platform::DeviceId::Stratix10}) {
        platform::FpgaModel fpga(platform::fpga_spec(device));
        std::cout << "--- " << platform::to_string(device) << " ---\n";

        auto mod = frontend::parse_module(app.source, app.name);
        auto types = sema::check(*mod);
        auto hotspots = analysis::detect_hotspots(*mod, types, app.workload,
                                                  &session.profile_cache());
        transform::extract_hotspot(*mod, types, *hotspots.top()->loop,
                                   "rl_kernel");
        types = sema::check(*mod);

        const auto whole = fpga.report(*mod->find_function("rl_kernel"),
                                       types, 1);
        std::cout << "whole kernel at unroll 1: "
                  << format_compact(100.0 * whole.utilisation(), 3)
                  << "% utilisation => "
                  << (whole.overmapped ? "OVERMAPPED (the paper's result)"
                                       : "fits")
                  << "\n";

        // Split until every part fits (recursively, balanced cuts).
        std::vector<std::string> worklist = {"rl_kernel"};
        std::vector<std::string> fitting;
        int total_spills = 0;
        bool failed = false;
        while (!worklist.empty()) {
            const std::string name = worklist.back();
            worklist.pop_back();
            const auto report =
                fpga.report(*mod->find_function(name), types, 1);
            if (!report.overmapped) {
                fitting.push_back(name);
                continue;
            }
            const std::size_t cut =
                transform::balanced_cut_point(*mod, types, name);
            if (cut == 0) {
                failed = true;
                break;
            }
            auto split = transform::split_kernel(*mod, types, name, cut);
            total_spills += static_cast<int>(split.spilled.size());
            types = sema::check(*mod);
            worklist.push_back(split.part1);
            worklist.push_back(split.part2);
        }
        if (failed) {
            std::cout << "could not split further\n\n";
            continue;
        }
        std::sort(fitting.begin(), fitting.end());
        std::cout << "split into " << fitting.size() << " parts ("
                  << total_spills << " scalars spilled through per-cell "
                  << "arrays)\n";

        // Price each part: characterise it on the real workload, run the
        // unroll DSE, estimate its pipeline time.
        TablePrinter table({"part", "unroll", "utilisation", "time"});
        double combined = 0.0;
        double reference_seconds = 0.0;
        for (const auto& name : fitting) {
            auto ch = analysis::characterize_kernel(
                *mod, types, name, app.workload, &session.profile_cache());
            perf::ShapeOptions opt;
            opt.relative_scale =
                app.workload.eval_scale / app.workload.profile_scale;
            auto shape = perf::build_kernel_shape(
                *mod->find_function(name), *mod, ch, opt);
            if (reference_seconds == 0.0) {
                // CPU reference for the *whole* kernel: sum of part flops
                // equals the original, so accumulate.
            }
            reference_seconds += perf::cpu_reference_seconds(shape);

            // Unroll DSE per part (double precision: Rush Larsen is
            // precision-sensitive).
            int best_unroll = 0;
            platform::FpgaReport best_report;
            for (int unroll = 1;; unroll *= 2) {
                const auto report =
                    fpga.report(*mod->find_function(name), types, unroll);
                if (report.overmapped) break;
                best_unroll = unroll;
                best_report = report;
                if (unroll >= 64) break;
            }
            const auto est = fpga.estimate(shape, best_report);
            combined += est.total_seconds;
            table.add_row({name, std::to_string(best_unroll),
                           format_compact(100.0 * best_report.utilisation(),
                                          3) +
                               "%",
                           format_compact(est.total_seconds, 4) + " s"});
        }
        table.print(std::cout);

        const double speedup = reference_seconds / combined;
        std::cout << "combined split-design time: "
                  << format_compact(combined, 4) << " s  =>  "
                  << format_compact(speedup, 3)
                  << "x vs single-thread CPU\n";

        RunOptions informed;
        informed.mode = flow::Mode::Informed;
        auto gpu = compile(session, app, informed);
        const auto* best = gpu.best();
        if (best != nullptr) {
            std::cout << "informed PSA-flow's GPU design: "
                      << format_compact(best->speedup, 3)
                      << "x — loop splitting makes the FPGA design "
                         "*synthesizable* but "
                      << (best->speedup > speedup ? "slower than"
                                                  : "faster than")
                      << " the auto-selected target,\nconfirming the "
                         "paper's expectation that finer partitioning "
                         "\"may potentially impact performance "
                         "negatively\".\n";
        }
        std::cout << "\n";
    }
    return 0;
}
