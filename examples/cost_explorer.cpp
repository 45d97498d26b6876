// cost_explorer: the Section IV-D scenario — heterogeneous-cloud mapping
// under price and budget constraints.
//
// Demonstrates:
//   1. deriving per-design run costs from the predicted times and cloud
//      prices (the paper's Fig. 6 reasoning, for all five apps);
//   2. the Fig. 3 budget feedback loop: give the informed flow a run-cost
//      budget and watch it re-select a cheaper target when the first
//      choice busts it.
#include <iostream>
#include <string>

#include "core/psaflow.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace psaflow;

int main(int argc, char** argv) {
    flow::FlowSession session;
    const std::string app_name = argc > 1 ? argv[1] : "adpredictor";
    const apps::Application& app = apps::application_by_name(app_name);

    flow::CostModel prices; // defaults: CPU $2/h, GPU $3/h, FPGA $1.65/h

    std::cout << "=== cost explorer: " << app.name << " ===\n";
    std::cout << "cloud prices: CPU $" << prices.cpu_per_hour << "/h, GPU $"
              << prices.gpu_per_hour << "/h, FPGA $" << prices.fpga_per_hour
              << "/h\n\n";

    // --- all designs with their run costs --------------------------------
    RunOptions uninformed;
    uninformed.mode = flow::Mode::Uninformed;
    auto all = compile(session, app, uninformed);

    TablePrinter table({"design", "speedup", "hotspot time", "run cost"});
    for (const auto& d : all.designs) {
        if (!d.synthesizable) {
            table.add_row({d.name(), "overmapped", "-", "-"});
            continue;
        }
        const double cost =
            prices.run_cost(d.spec.target, d.hotspot_seconds);
        table.add_row({d.name(), format_compact(d.speedup, 4) + "x",
                       format_compact(d.hotspot_seconds, 4) + " s",
                       "$" + format_compact(cost, 3)});
    }
    table.print(std::cout);

    // --- budget feedback ----------------------------------------------------
    const auto* best = all.best();
    if (best == nullptr) return 0;
    const double best_cost =
        prices.run_cost(best->spec.target, best->hotspot_seconds);

    std::cout << "\n--- Fig. 3 budget feedback ---\n";
    std::cout << "unconstrained informed selection:\n";
    RunOptions informed;
    informed.mode = flow::Mode::Informed;
    auto unconstrained = compile(session, app, informed);
    for (const auto& d : unconstrained.designs) {
        std::cout << "  -> " << d.name() << " ($"
                  << format_compact(
                         prices.run_cost(d.spec.target, d.hotspot_seconds), 3)
                  << " per run)\n";
    }

    // Budget slightly below the unconstrained choice's cost: the engine
    // must re-select (the "IF cost > budget: revise design" loop).
    if (!unconstrained.designs.empty() &&
        unconstrained.designs[0].spec.target != codegen::TargetKind::None) {
        const auto& first = unconstrained.designs[0];
        const double first_cost =
            prices.run_cost(first.spec.target, first.hotspot_seconds);
        RunOptions constrained = informed;
        constrained.engine.budget.max_run_cost = first_cost * 0.5;
        std::cout << "\nbudget set to $"
                  << format_compact(constrained.engine.budget.max_run_cost, 3)
                  << " (half the unconstrained choice):\n";
        auto revised = compile(session, app, constrained);
        for (const auto& d : revised.designs) {
            std::cout << "  -> " << d.name() << " ($"
                      << format_compact(prices.run_cost(d.spec.target,
                                                        d.hotspot_seconds),
                                        3)
                      << " per run)"
                      << (d.spec.target != first.spec.target
                              ? "  [revised by cost feedback]"
                              : "")
                      << "\n";
        }
    }
    (void)best_cost;
    return 0;
}
