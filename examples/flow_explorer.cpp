// flow_explorer: run the standard PSA-flow on one of the bundled
// applications and dump everything the flow did — analysis notes, the
// Fig. 3 decision at branch point A, per-device DSE traces and the final
// design summaries. The tool to reach for when you wonder *why* the flow
// picked a target.
//
// Usage: flow_explorer [app] [informed|uninformed]
//        flow_explorer --list
#include <cstring>
#include <iostream>

#include "core/psaflow.hpp"
#include "support/string_util.hpp"

using namespace psaflow;

int main(int argc, char** argv) {
    flow::FlowSession session;
    if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
        for (const apps::Application* app : apps::all_applications()) {
            std::cout << app->name << ": " << app->description << "\n";
        }
        return 0;
    }

    const std::string app_name = argc > 1 ? argv[1] : "nbody";
    const std::string mode_name = argc > 2 ? argv[2] : "uninformed";

    const apps::Application& app = apps::application_by_name(app_name);
    RunOptions options;
    options.mode = mode_name == "informed" ? flow::Mode::Informed
                                           : flow::Mode::Uninformed;

    std::cout << "=== " << app.name << " (" << mode_name << " PSA-flow) ===\n";
    std::cout << app.description << "\n\n";

    auto result = compile(session, app, options);

    std::cout << "reference 1-thread CPU hotspot time: "
              << format_compact(result.reference_seconds, 4) << " s\n\n";

    for (const auto& design : result.designs) {
        std::cout << "--- design: " << design.name() << " ---\n";
        for (const auto& line : design.log) std::cout << "  " << line << "\n";
        std::cout << "  shape: flops=" << format_compact(design.shape.flops, 4)
                  << " footprint=" << format_compact(design.shape.footprint_bytes, 4)
                  << "B in=" << format_compact(design.shape.bytes_in, 4)
                  << "B out=" << format_compact(design.shape.bytes_out, 4)
                  << "B par_iters=" << format_compact(design.shape.parallel_iters, 4)
                  << "\n         cpi=" << format_compact(design.shape.sequential_cycles_per_iter, 4)
                  << " dep_frac=" << format_compact(design.shape.dependent_fraction, 3)
                  << " tf=" << format_compact(design.shape.transcendental_fraction, 3)
                  << " regs=" << design.shape.regs_per_thread
                  << " fpga_traffic=" << format_compact(design.shape.fpga_traffic(), 4)
                  << "B gpu_xfer=" << format_compact(design.shape.gpu_transfer(), 4)
                  << "B\n";
        std::cout << "  => " << (design.synthesizable
                                     ? format_compact(design.speedup, 4) +
                                           "x speedup, " +
                                           format_compact(design.hotspot_seconds, 4) +
                                           " s"
                                     : std::string("NOT SYNTHESIZABLE"))
                  << ", +" << format_compact(100.0 * design.loc_delta, 3)
                  << "% LOC\n\n";
    }
    return 0;
}
