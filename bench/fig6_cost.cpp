// Reproduces Fig. 6: relative cost of FPGA vs GPU execution while sweeping
// the price ratio between the two resources from 1/4 to 4. The paper plots
// AdPredictor, Bezier and K-Means using the Stratix10 and RTX 2080 Ti
// results of Fig. 5 and reports two crossovers:
//   - AdPredictor executes fastest on the Stratix10, but once the FPGA
//     price exceeds ~3.2x the GPU price the GPU becomes more cost
//     effective;
//   - Bezier is faster on the 2080 Ti, but once the GPU price exceeds
//     ~2.5x the FPGA price the Stratix10 becomes more cost effective.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/psaflow.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

using namespace psaflow;

int main() {
    flow::FlowSession session(
        flow::session_options({}, cli::load_environment()));
    std::cout << "=== Fig. 6: FPGA vs GPU cost for varying resource prices "
                 "===\n";
    std::cout << "cost(FPGA)/cost(GPU) = (t_fpga * p_fpga) / (t_gpu * "
                 "p_gpu);  < 1 means the FPGA is more cost effective\n\n";

    const std::vector<std::string> app_names = {"adpredictor", "bezier",
                                                "kmeans"};
    const std::vector<double> ratios = {0.25, 1.0 / 3.0, 0.5, 1.0,
                                        2.0,  3.0,       4.0};

    TablePrinter table({"FPGA/GPU price", "adpredictor", "bezier", "kmeans"});

    struct Times {
        double fpga = 0.0;
        double gpu = 0.0;
    };
    std::vector<Times> times;

    for (const auto& name : app_names) {
        RunOptions options;
        options.mode = flow::Mode::Uninformed;
        auto result =
            compile(session, apps::application_by_name(name), options);
        const auto* s10 = result.find(codegen::TargetKind::CpuFpga,
                                      platform::DeviceId::Stratix10);
        const auto* gpu = result.find(codegen::TargetKind::CpuGpu,
                                      platform::DeviceId::Rtx2080Ti);
        Times t;
        t.fpga = s10 != nullptr && s10->synthesizable ? s10->hotspot_seconds
                                                      : -1.0;
        t.gpu = gpu != nullptr ? gpu->hotspot_seconds : -1.0;
        times.push_back(t);
    }

    for (double ratio : ratios) {
        std::vector<std::string> row = {format_compact(ratio, 3)};
        for (const Times& t : times) {
            if (t.fpga < 0.0 || t.gpu < 0.0) {
                row.push_back("n/a");
                continue;
            }
            const double rel = t.fpga * ratio / t.gpu;
            row.push_back(format_compact(rel, 3) +
                          (rel < 1.0 ? "  [FPGA]" : "  [GPU]"));
        }
        table.add_row(row);
    }
    table.print(std::cout);

    // Crossover price ratios: cost parity at p_fpga/p_gpu = t_gpu/t_fpga.
    std::cout << "\ncrossover price ratios (FPGA price / GPU price at cost "
                 "parity):\n";
    const double paper_crossover[] = {3.2, 1.0 / 2.5, -1.0};
    for (std::size_t i = 0; i < app_names.size(); ++i) {
        if (times[i].fpga < 0.0 || times[i].gpu < 0.0) continue;
        const double crossover = times[i].gpu / times[i].fpga;
        std::cout << "  " << app_names[i] << ": measured "
                  << format_compact(crossover, 3);
        if (paper_crossover[i] > 0.0)
            std::cout << " (paper ~" << format_compact(paper_crossover[i], 3)
                      << ")";
        std::cout << (crossover > 1.0
                          ? "  — FPGA faster: GPU only wins when the FPGA "
                            "price exceeds this multiple"
                          : "  — GPU faster: FPGA wins when the GPU price "
                            "exceeds the reciprocal")
                  << "\n";
    }
    std::cout << "\npaper claims: AdPredictor crossover at FPGA/GPU price "
                 "3.2; Bezier at GPU/FPGA price 2.5\n";

    const auto& reg = trace::Registry::global();
    std::cout << "\nharness cost: " << reg.counter("interp.runs")
              << " interpreter runs, " << reg.counter("profile_cache.hits")
              << " cache hits / " << reg.counter("profile_cache.misses")
              << " misses\n";
    return 0;
}
