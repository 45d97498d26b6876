// quickstart: the five-minute tour of psaflow.
//
// 1. Write a technology-agnostic application in HLC (a C-like subset).
// 2. Describe how to run it (workload: entry point + argument factory).
// 3. Call psaflow::compile with both as an Application — the PSA-flow
//    finds the hotspot, analyses it, picks a target (Fig. 3 strategy),
//    applies the target- and device-specific optimisations and emits
//    ready-to-build design sources.
//
// This example also demonstrates the Fig. 2 meta-program directly: query
// the kernel's outermost loops and instrument them with a pragma.
#include <iostream>

#include "ast/printer.hpp"
#include "core/psaflow.hpp"
#include "frontend/parser.hpp"
#include "interp/value.hpp"
#include "meta/instrument.hpp"
#include "meta/query.hpp"
#include "support/prng.hpp"
#include "support/string_util.hpp"

using namespace psaflow;

namespace {

// A small image-blur application: 1-D 5-point stencil smoothing passes.
const char* kBlurSource = R"(
void blur_pass(int n, double* src, double* dst) {
    for (int i = 2; i < n - 2; i = i + 1) {
        dst[i] = 0.0625 * src[i - 2] + 0.25 * src[i - 1] + 0.375 * src[i]
               + 0.25 * src[i + 1] + 0.0625 * src[i + 2];
    }
}

void run(int n, int passes, double* a, double* b) {
    for (int p = 0; p < passes; p = p + 1) {
        blur_pass(n, a, b);
        blur_pass(n, b, a);
    }
}
)";

analysis::Workload blur_workload() {
    analysis::Workload w;
    w.entry = "run";
    w.profile_scale = 1.0;
    w.eval_scale = 4096.0; // 4M-element signal at evaluation scale
    w.make_args = [](double scale) {
        const int n = static_cast<int>(1024 * scale);
        auto a = std::make_shared<interp::Buffer>(ast::Type::Double,
                                                  static_cast<std::size_t>(n),
                                                  "a");
        auto b = std::make_shared<interp::Buffer>(ast::Type::Double,
                                                  static_cast<std::size_t>(n),
                                                  "b");
        SplitMix64 rng(7);
        for (int i = 0; i < n; ++i) a->store(i, rng.uniform(0.0, 255.0));
        return std::vector<interp::Arg>{interp::Value::of_int(n),
                                        interp::Value::of_int(4), a, b};
    };
    return w;
}

} // namespace

int main() {
    std::cout << "psaflow quickstart (" << version() << ")\n\n";

    // --- 1. the Fig. 2 meta-program mechanism, by hand --------------------
    auto module = frontend::parse_module(kBlurSource, "blur");
    ast::Function* fn = module->find_function("blur_pass");
    for (ast::For* loop : meta::outermost_for_loops(*fn)) {
        meta::add_pragma(*loop, "unroll 4");
    }
    std::cout << "--- instrumented source (query + instrument) ---\n"
              << ast::to_source(*fn) << "\n";

    // --- 2. the full PSA-flow ----------------------------------------------
    std::cout << "--- running the informed PSA-flow ---\n";
    apps::Application blur;
    blur.name = "blur";
    blur.source = kBlurSource;
    blur.workload = blur_workload();
    flow::FlowSession session;
    auto result = compile(session, blur);

    std::cout << "reference single-thread hotspot time: "
              << format_compact(result.reference_seconds, 4) << " s\n\n";
    for (const auto& design : result.designs) {
        std::cout << "generated design '" << design.name() << "': "
                  << format_compact(design.speedup, 4) << "x speedup, +"
                  << format_compact(100.0 * design.loc_delta, 3)
                  << "% LOC\n";
        std::cout << "  target decisions:\n";
        for (const auto& line : design.log) {
            if (line.find("PSA") != std::string::npos ||
                line.find("DSE") != std::string::npos ||
                line.find("threads") != std::string::npos)
                std::cout << "    " << line << "\n";
        }
    }

    // --- 3. the emitted design source ------------------------------------
    if (!result.designs.empty()) {
        std::cout << "\n--- emitted design source (first 30 lines) ---\n";
        int shown = 0;
        for (const auto& line : split(result.designs[0].source, '\n')) {
            std::cout << line << "\n";
            if (++shown == 30) break;
        }
    }
    return 0;
}
