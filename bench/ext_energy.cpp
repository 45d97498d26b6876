// Extension experiment (paper Section IV-D): "Similar analysis could be
// used to identify the most energy efficient implementation for a specific
// application."
//
// For every benchmark and every generated design this bench derives the
// energy of one hotspot run (device TDP + host share, times the predicted
// time) and contrasts the energy-optimal mapping with the
// performance-optimal one. The punchline mirrors the paper's cost
// discussion: the fastest resource is not always the most efficient one —
// the FPGA's ~3-4x power advantage flips several mappings.
#include <iostream>
#include <string>

#include "core/psaflow.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace psaflow;

int main() {
    flow::FlowSession session(
        flow::session_options({}, cli::load_environment()));
    std::cout << "=== extension: energy-efficiency analysis (Section IV-D) "
                 "===\n";
    flow::CostModel model;
    std::cout << "power model: EPYC 225 W, GTX/RTX 250/260 W, Arria10 66 W, "
                 "Stratix10 140 W, host share "
              << model.host_share_watts << " W\n\n";

    TablePrinter table({"Application", "perf-optimal", "energy-optimal",
                        "perf-opt/energy-opt", "S10 vs optimal"});

    for (const apps::Application* app : apps::all_applications()) {
        RunOptions options;
        options.mode = flow::Mode::Uninformed;
        auto all = compile(session, *app, options);

        const flow::DesignArtifact* fastest = nullptr;
        const flow::DesignArtifact* greenest = nullptr;
        double best_energy = 0.0;
        for (const auto& d : all.designs) {
            if (!d.synthesizable) continue;
            const double joules =
                flow::energy_joules(model, d.spec.device, d.hotspot_seconds);
            if (fastest == nullptr ||
                d.hotspot_seconds < fastest->hotspot_seconds)
                fastest = &d;
            if (greenest == nullptr || joules < best_energy) {
                greenest = &d;
                best_energy = joules;
            }
        }
        if (fastest == nullptr || greenest == nullptr) continue;
        const double fastest_energy = flow::energy_joules(
            model, fastest->spec.device, fastest->hotspot_seconds);
        // How close does the low-power Stratix10 come, despite being
        // slower?
        const auto* s10 = all.find(codegen::TargetKind::CpuFpga,
                                   platform::DeviceId::Stratix10);
        std::string s10_cell = "n/a (overmap)";
        if (s10 != nullptr && s10->synthesizable) {
            const double joules = flow::energy_joules(
                model, s10->spec.device, s10->hotspot_seconds);
            s10_cell = format_compact(joules / best_energy, 3) + "x";
        }
        table.add_row({
            app->name,
            fastest->name() + " (" +
                format_compact(fastest_energy, 3) + " J)",
            greenest->name() + " (" + format_compact(best_energy, 3) +
                " J)",
            format_compact(fastest_energy / best_energy, 3) + "x",
            s10_cell,
        });
    }
    table.print(std::cout);

    std::cout << "\nA ratio above 1x means the performance-optimal mapping "
                 "wastes energy relative to\nthe most efficient design — "
                 "the energy analogue of the paper's Fig. 6 cost\n"
                 "trade-off, and one more dimension a PSA strategy can "
                 "optimise for.\n";
    return 0;
}
