// Reproduces Table I: added lines of code (LOC) of every generated design
// versus the reference unoptimised high-level source, per application, plus
// the five-design total. The paper's Rush Larsen oneAPI designs are
// excluded (not synthesizable), exactly as in the paper's Table I.
#include <iostream>
#include <string>

#include "core/psaflow.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace psaflow;

namespace {

std::string cell(double measured, int lines, double paper) {
    std::string out = "+" + format_compact(100.0 * measured, 3) + "% (" +
                      std::to_string(lines) + " ln";
    if (paper >= 0.0)
        out += "; paper +" + format_compact(100.0 * paper, 3) + "%)";
    else
        out += "; paper n/a)";
    return out;
}

int added_lines(const flow::DesignArtifact& d,
                const std::string& reference_source) {
    return count_loc(d.source) - count_loc(reference_source);
}

} // namespace

int main() {
    flow::FlowSession session(
        flow::session_options({}, cli::load_environment()));
    std::cout << "=== Table I: added LOC per generated design vs reference "
                 "===\n\n";

    TablePrinter table({"Application", "OMP", "HIP 1080", "HIP 2080",
                        "oneAPI A10", "oneAPI S10", "Total (5 designs)"});

    double avg[6] = {0, 0, 0, 0, 0, 0};
    int counted[6] = {0, 0, 0, 0, 0, 0};

    for (const apps::Application* app : apps::all_applications()) {
        RunOptions options;
        options.mode = flow::Mode::Uninformed;
        auto result = compile(session, *app, options);

        using codegen::TargetKind;
        using platform::DeviceId;
        struct Col {
            TargetKind target;
            DeviceId device;
            double paper;
        };
        const Col cols[] = {
            {TargetKind::CpuOpenMp, DeviceId::Epyc7543, app->paper_loc_omp},
            {TargetKind::CpuGpu, DeviceId::Gtx1080Ti, app->paper_loc_hip},
            {TargetKind::CpuGpu, DeviceId::Rtx2080Ti, app->paper_loc_hip},
            {TargetKind::CpuFpga, DeviceId::Arria10, app->paper_loc_a10},
            {TargetKind::CpuFpga, DeviceId::Stratix10, app->paper_loc_s10},
        };

        std::vector<std::string> row = {app->name};
        double total = 0.0;
        bool total_valid = true;
        int c = 0;
        for (const Col& col : cols) {
            const auto* d = result.find(col.target, col.device);
            if (d == nullptr || (!d->synthesizable && col.paper < 0.0)) {
                row.push_back("n/a (paper n/a)");
                total_valid = false;
            } else {
                row.push_back(cell(d->loc_delta,
                                   added_lines(*d, app->source), col.paper));
                total += d->loc_delta;
                avg[c] += d->loc_delta;
                ++counted[c];
            }
            ++c;
        }
        row.push_back(total_valid ? "+" + format_compact(100.0 * total, 3) +
                                        "%"
                                  : "n/a");
        table.add_row(row);
    }

    std::vector<std::string> avg_row = {"Average"};
    double avg_total = 0.0;
    for (int c = 0; c < 5; ++c) {
        const double v = counted[c] > 0 ? avg[c] / counted[c] : 0.0;
        avg_total += v;
        avg_row.push_back("+" + format_compact(100.0 * v, 3) + "%");
    }
    avg_row.push_back("+" + format_compact(100.0 * avg_total, 3) + "%");
    table.add_separator();
    table.add_row(avg_row);
    table.print(std::cout);

    std::cout << "\npaper averages: OMP +2%, HIP +36%, oneAPI A10 +57%, "
                 "oneAPI S10 +81%, total +212%\n";
    std::cout << "\nNOTE on magnitudes: the percentages above are relative "
                 "to our compact\nreference sources (30-60 LOC); the "
                 "paper's references are several times\nlarger, so its "
                 "percentages are smaller for a similar number of *added*\n"
                 "lines of management/kernel code per design. The column "
                 "ordering\n(OMP << HIP < oneAPI A10 < oneAPI S10) is the "
                 "reproducible shape.\n";
    std::cout << "\nshape checks:\n";
    std::cout << "  OMP designs add the least code (pragmas only), HIP adds "
                 "device kernels +\n  management, oneAPI adds the most "
                 "(queue/buffer boilerplate), and the USM\n  (Stratix10) "
                 "variant exceeds the buffer (Arria10) variant.\n";
    return 0;
}
