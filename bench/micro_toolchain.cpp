// Micro-benchmarks (google-benchmark) of the psaflow toolchain itself:
// lexing/parsing throughput, interpretation rate, analysis and transform
// latency, and one full PSA-flow run. These quantify the cost of the
// meta-programming substrate (the paper argues the flow's encoding effort
// amortises across applications — these numbers show one flow execution is
// seconds, not hours).
#include <benchmark/benchmark.h>

#include "analysis/dependence.hpp"
#include "analysis/hotspot.hpp"
#include "apps/apps.hpp"
#include "ast/clone.hpp"
#include "ast/printer.hpp"
#include "core/psaflow.hpp"
#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "meta/query.hpp"
#include "transform/unroll.hpp"

using namespace psaflow;

static void BM_ParseNBody(benchmark::State& state) {
    const auto& src = apps::nbody().source;
    for (auto _ : state) {
        auto mod = frontend::parse_module(src, "nbody");
        benchmark::DoNotOptimize(mod);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_ParseNBody);

static void BM_ParseRushLarsen(benchmark::State& state) {
    const auto& src = apps::rush_larsen().source;
    for (auto _ : state) {
        auto mod = frontend::parse_module(src, "rl");
        benchmark::DoNotOptimize(mod);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_ParseRushLarsen);

static void BM_PrintRoundTrip(benchmark::State& state) {
    auto mod = frontend::parse_module(apps::kmeans().source, "kmeans");
    for (auto _ : state) {
        auto text = ast::to_source(*mod);
        benchmark::DoNotOptimize(text);
    }
}
BENCHMARK(BM_PrintRoundTrip);

static void BM_CloneModule(benchmark::State& state) {
    auto mod = frontend::parse_module(apps::rush_larsen().source, "rl");
    for (auto _ : state) {
        auto copy = ast::clone_module(*mod);
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_CloneModule);

static void BM_TypeCheck(benchmark::State& state) {
    auto mod = frontend::parse_module(apps::rush_larsen().source, "rl");
    for (auto _ : state) {
        auto types = sema::check(*mod);
        benchmark::DoNotOptimize(types);
    }
}
BENCHMARK(BM_TypeCheck);

static void BM_InterpretNBodyProfile(benchmark::State& state) {
    const auto& app = apps::nbody();
    auto mod = frontend::parse_module(app.source, "nbody");
    auto types = sema::check(*mod);
    for (auto _ : state) {
        interp::InterpOptions opt;
        opt.profile = true;
        auto run = interp::run_function(
            *mod, types, app.workload.entry,
            app.workload.make_args(app.workload.profile_scale), opt);
        benchmark::DoNotOptimize(run);
    }
}
BENCHMARK(BM_InterpretNBodyProfile);

static void BM_DependenceAnalysis(benchmark::State& state) {
    auto mod = frontend::parse_module(apps::kmeans().source, "kmeans");
    auto types = sema::check(*mod);
    auto loops =
        meta::outermost_for_loops(*mod->find_function("kmeans_assign"));
    for (auto _ : state) {
        auto info = analysis::analyze_dependence(*mod, *loops[0]);
        benchmark::DoNotOptimize(info);
    }
}
BENCHMARK(BM_DependenceAnalysis);

static void BM_UnrollTransform(benchmark::State& state) {
    const char* src = R"(
void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0 + 1.0;
    }
}
)";
    for (auto _ : state) {
        state.PauseTiming();
        auto mod = frontend::parse_module(src, "f");
        auto loops = meta::outermost_for_loops(*mod->find_function("f"));
        state.ResumeTiming();
        transform::unroll_loop(*mod, *loops[0],
                               static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(mod);
    }
}
BENCHMARK(BM_UnrollTransform)->Arg(2)->Arg(8)->Arg(32);

static void BM_FullInformedFlow_AdPredictor(benchmark::State& state) {
    flow::FlowSession session;
    for (auto _ : state) {
        RunOptions options;
        options.mode = flow::Mode::Informed;
        auto result = compile(session, apps::adpredictor(), options);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_FullInformedFlow_AdPredictor)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
