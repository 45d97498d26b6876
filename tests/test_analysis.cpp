#include <gtest/gtest.h>

#include "analysis/characterize.hpp"
#include "analysis/dependence.hpp"
#include "analysis/hotspot.hpp"
#include "analysis/intensity.hpp"
#include "analysis/profile_cache.hpp"
#include "ast/clone.hpp"
#include "ast/walk.hpp"
#include "meta/query.hpp"
#include "test_util.hpp"
#include "transform/extract.hpp"

namespace psaflow {
namespace {

using namespace psaflow::analysis;
using namespace psaflow::ast;
using psaflow::testing::parse_and_check;

interp::Arg integer(long long v) { return interp::Value::of_int(v); }

// -------------------------------------------------------------- hotspot ----

TEST(Hotspot, RanksQuadraticNestAboveLinearLoop) {
    auto [mod, types] = parse_and_check(R"(
void app(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = i * 1.0;
    }
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] = a[i] + a[j] * 0.5;
        }
    }
}
)");
    Workload w;
    w.entry = "app";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(32 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(Type::Double, 256, "a")};
    };
    auto report = detect_hotspots(*mod, types, w);
    ASSERT_EQ(report.candidates.size(), 2u);
    const auto* top = report.top();
    ASSERT_NE(top, nullptr);
    // The O(n^2) nest is the second outermost loop in the source.
    auto loops = meta::outermost_for_loops(*mod->find_function("app"));
    EXPECT_EQ(top->loop, loops[1]);
    EXPECT_GT(top->fraction, 0.8);
    EXPECT_EQ(top->trips, 32);
}

TEST(Hotspot, FindsLoopsInCalledFunctions) {
    auto [mod, types] = parse_and_check(R"(
void work(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0 + 1.0;
    }
}

void app(int n, double* a) {
    for (int t = 0; t < 3; t++) {
        work(n, a);
    }
}
)");
    Workload w;
    w.entry = "app";
    w.make_args = [](double) {
        return std::vector<interp::Arg>{
            integer(64),
            std::make_shared<interp::Buffer>(Type::Double, 64, "a")};
    };
    auto report = detect_hotspots(*mod, types, w);
    // Candidates: the t-loop in app and the i-loop in work. Self-cost
    // attribution ranks the loop doing the work, not the driver loop
    // around the calls.
    ASSERT_EQ(report.candidates.size(), 2u);
    EXPECT_EQ(report.candidates[0].function->name, "work");
    EXPECT_GT(report.candidates[0].fraction, 0.5);
}

// ----------------------------------------------------------- dependence ----

const For& only_loop(const Module& mod, const std::string& fn) {
    auto loops =
        meta::outermost_for_loops(*mod.find_function(fn));
    EXPECT_EQ(loops.size(), 1u);
    return *loops[0];
}

TEST(Dependence, ElementwiseMapIsParallel) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_TRUE(info.parallel);
    EXPECT_TRUE(info.reductions.empty());
    EXPECT_TRUE(info.carried.empty());
}

TEST(Dependence, StridedLayoutIsParallel) {
    // K-Means point layout: points[i*dim + d].
    auto [mod, types] = parse_and_check(R"(
void f(int n, int dim, double* pts, double* out) {
    for (int i = 0; i < n; i++) {
        for (int d = 0; d < dim; d++) {
            out[i * dim + d] = pts[i * dim + d] * 0.5;
        }
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_TRUE(info.parallel) << (info.carried.empty() ? "" : info.carried[0]);
}

TEST(Dependence, StencilOffsetIsCarried) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i + 1] * 0.5;
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_FALSE(info.parallel);
    ASSERT_FALSE(info.carried.empty());
}

TEST(Dependence, ScalarSumIsReduction) {
    auto [mod, types] = parse_and_check(R"(
double f(int n, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    return s;
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_TRUE(info.parallel);
    ASSERT_EQ(info.reductions.size(), 1u);
    EXPECT_EQ(info.reductions[0].var, "s");
    EXPECT_EQ(info.reductions[0].op, '+');
}

TEST(Dependence, ExplicitSumFormIsReduction) {
    auto [mod, types] = parse_and_check(R"(
double f(int n, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s + a[i];
    }
    return s;
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    ASSERT_EQ(info.reductions.size(), 1u);
    EXPECT_EQ(info.reductions[0].op, '+');
}

TEST(Dependence, ProductReduction) {
    auto [mod, types] = parse_and_check(R"(
double f(int n, double* a) {
    double p = 1.0;
    for (int i = 0; i < n; i++) {
        p *= a[i];
    }
    return p;
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    ASSERT_EQ(info.reductions.size(), 1u);
    EXPECT_EQ(info.reductions[0].op, '*');
}

TEST(Dependence, ReadOfAccumulatorBlocksReduction) {
    auto [mod, types] = parse_and_check(R"(
double f(int n, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i];
        a[i] = s;
    }
    return s;
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_FALSE(info.parallel);
}

TEST(Dependence, PrivateScalarsDoNotBlock) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        double best = 1e30;
        if (b[i] < best) {
            best = b[i];
        }
        a[i] = best;
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_TRUE(info.parallel);
}

TEST(Dependence, HistogramIsArrayAccumulation) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, int* bin, double* hist) {
    for (int i = 0; i < n; i++) {
        hist[bin[i]] += 1.0;
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_FALSE(info.parallel);
    ASSERT_EQ(info.array_accumulations.size(), 1u);
    EXPECT_EQ(info.array_accumulations[0], "hist");
}

TEST(Dependence, LoopInvariantIndexAccumulation) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, int k, double* a, double* out) {
    for (int i = 0; i < n; i++) {
        out[k] += a[i];
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_FALSE(info.parallel);
    ASSERT_EQ(info.array_accumulations.size(), 1u);
}

TEST(Dependence, InductionVariableMutationIsCarried) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = 0.0;
        i = i + 1;
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_FALSE(info.parallel);
}

TEST(Dependence, CallWritingArrayIsCarried) {
    auto [mod, types] = parse_and_check(R"(
void helper(int i, double* a) {
    a[i] = 1.0;
}

void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        helper(i, a);
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_FALSE(info.parallel);
}

TEST(Dependence, PureCallIsFine) {
    auto [mod, types] = parse_and_check(R"(
double square(double x) {
    return x * x;
}

void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = square(a[i]);
    }
}
)");
    auto info = analyze_dependence(*mod, only_loop(*mod, "f"));
    EXPECT_TRUE(info.parallel);
}

TEST(Dependence, InnerLoopAccumulatorSeenFromInnerLoop) {
    // AdPredictor shape: the inner fixed loop accumulates into a scalar
    // declared in the outer body — a reduction w.r.t. the *inner* loop.
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* w, double* out) {
    for (int i = 0; i < n; i++) {
        double s = 0.0;
        for (int j = 0; j < 12; j++) {
            s += w[j];
        }
        out[i] = s;
    }
}
)");
    auto outer_loops = meta::outermost_for_loops(*mod->find_function("f"));
    auto inner = meta::inner_for_loops(*outer_loops[0]);
    ASSERT_EQ(inner.size(), 1u);

    auto outer_info = analyze_dependence(*mod, *outer_loops[0]);
    EXPECT_TRUE(outer_info.parallel); // s is private to each i

    auto inner_info = analyze_dependence(*mod, *inner[0]);
    EXPECT_TRUE(inner_info.has_reductions()); // s accumulates across j
}

// -------------------------------------------------------------- intensity --

TEST(Intensity, CountsPerIterationWork) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0 + 1.0;
    }
}
)");
    auto loops = meta::outermost_for_loops(*mod->find_function("f"));
    auto si = static_intensity(*loops[0], types);
    EXPECT_TRUE(si.exact);
    EXPECT_DOUBLE_EQ(si.flops, 2.0);  // mul + add
    EXPECT_DOUBLE_EQ(si.bytes, 16.0); // read b[i], write a[i]
    EXPECT_DOUBLE_EQ(si.flops_per_byte(), 0.125);
}

TEST(Intensity, FixedInnerLoopsMultiply) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a, double* w) {
    for (int i = 0; i < n; i++) {
        double s = 0.0;
        for (int j = 0; j < 8; j++) {
            s += w[j] * a[i];
        }
        a[i] = s;
    }
}
)");
    auto loops = meta::outermost_for_loops(*mod->find_function("f"));
    auto si = static_intensity(*loops[0], types);
    EXPECT_TRUE(si.exact);
    // Per outer iteration: inner 8 * (mul + add) = 16 flops, plus final store.
    EXPECT_DOUBLE_EQ(si.flops, 16.0);
}

TEST(Intensity, BuiltinCallsWeighted) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = exp(a[i]);
    }
}
)");
    auto loops = meta::outermost_for_loops(*mod->find_function("f"));
    auto si = static_intensity(*loops[0], types);
    EXPECT_DOUBLE_EQ(si.flops, 8.0); // exp weight
}

TEST(Intensity, UnknownBoundsFlagged) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, int m, double* a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
            a[j] = a[j] + 1.0;
        }
    }
}
)");
    auto loops = meta::outermost_for_loops(*mod->find_function("f"));
    auto si = static_intensity(*loops[0], types);
    EXPECT_FALSE(si.exact);
}

// ---------------------------------------------------------- characterize ---

TEST(Characterize, FitsQuadraticScaling) {
    auto [mod, types] = parse_and_check(R"(
void kernel(int n, double* a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] = a[i] + a[j] * 0.5;
        }
    }
}

void app(int n, double* a) {
    kernel(n, a);
}
)");
    Workload w;
    w.entry = "app";
    w.profile_scale = 1.0;
    w.make_args = [](double scale) {
        const int n = static_cast<int>(16 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(Type::Double, 512, "a")};
    };
    auto ch = characterize_kernel(*mod, types, "kernel", w);

    EXPECT_NEAR(ch.flops.exponent, 2.0, 0.1);    // O(n^2) flops
    EXPECT_NEAR(ch.footprint.exponent, 1.0, 0.1); // O(n) data
    EXPECT_FALSE(ch.args_alias);
    EXPECT_EQ(ch.kernel_calls, 1);

    // Extrapolation: 4x the scale -> 16x the flops.
    EXPECT_NEAR(ch.flops.at(4.0) / ch.flops.at(1.0), 16.0, 2.0);
    // Arithmetic intensity grows with n for O(n^2)/O(n).
    EXPECT_GT(ch.flops_per_byte(8.0), ch.flops_per_byte(1.0));
}

TEST(Characterize, DetectsAliasedKernelArgs) {
    auto [mod, types] = parse_and_check(R"(
void kernel(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1.0;
    }
}

void app(int n, double* a) {
    kernel(n, a, a);
}
)");
    Workload w;
    w.entry = "app";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(8 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(Type::Double, 64, "a")};
    };
    auto ch = characterize_kernel(*mod, types, "kernel", w);
    EXPECT_TRUE(ch.args_alias);
}

TEST(Characterize, LoopTripLawsTrackProblemSize) {
    auto [mod, types] = parse_and_check(R"(
void kernel(int n, double* a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 4; j++) {
            a[i] = a[i] + 1.0;
        }
    }
}

void app(int n, double* a) {
    kernel(n, a);
}
)");
    Workload w;
    w.entry = "app";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(16 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(Type::Double, 64, "a")};
    };
    auto ch = characterize_kernel(*mod, types, "kernel", w);
    ASSERT_EQ(ch.loops.size(), 2u);
    // Outer loop trips scale linearly; fixed inner loop does not scale.
    EXPECT_NEAR(ch.loops[0].trips_per_entry.exponent, 1.0, 0.05);
    EXPECT_NEAR(ch.loops[1].trips_per_entry.exponent, 0.0, 0.05);
    EXPECT_DOUBLE_EQ(ch.loops[1].trips_per_entry.base, 4.0);
}

TEST(Characterize, ThrowsWhenKernelNeverCalled) {
    auto [mod, types] = parse_and_check(R"(
void kernel(int n) { }
void app(int n) { }
)");
    Workload w;
    w.entry = "app";
    w.make_args = [](double) {
        return std::vector<interp::Arg>{integer(1)};
    };
    EXPECT_THROW((void)characterize_kernel(*mod, types, "kernel", w), Error);
}

// ---------------------------------------------------------- region focus ----

/// Under each engine, every outermost loop's focus region from one
/// region-focus run of `w` equals the function focus of a kernel extracted
/// from that loop and run on the same inputs. Returns the candidates of the
/// VM run for further checks.
std::vector<HotspotCandidate> expect_regions_match_kernels(Module& mod,
                                                           const Workload& w) {
    std::vector<HotspotCandidate> out;
    for (const interp::Engine engine :
         {interp::Engine::Tree, interp::Engine::Vm}) {
        SCOPED_TRACE(engine == interp::Engine::Tree ? "tree" : "vm");
        const sema::TypeInfo types = sema::check(mod);
        interp::InterpOptions io;
        io.region_focus = true;
        io.engine = engine;
        const auto run = interp::run_function(
            mod, types, w.entry, w.make_args(w.profile_scale), io);
        HotspotReport report = rank_hotspots(mod, run.profile);
        EXPECT_FALSE(report.candidates.empty());

        const auto loops = meta::for_loops(mod);
        for (const HotspotCandidate& cand : report.candidates) {
            const auto pos = static_cast<std::size_t>(
                std::find(loops.begin(), loops.end(), cand.loop) -
                loops.begin());
            SCOPED_TRACE("loop #" + std::to_string(pos));
            auto clone = clone_module(mod);
            (void)transform::extract_hotspot(*clone, sema::check(*clone),
                                             *meta::for_loops(*clone)[pos],
                                             "kernel_x");
            const sema::TypeInfo kernel_types = sema::check(*clone);
            interp::InterpOptions ko;
            ko.focus_function = "kernel_x";
            ko.engine = engine;
            const auto kernel_run = interp::run_function(
                *clone, kernel_types, w.entry, w.make_args(w.profile_scale),
                ko);
            const FocusProfile kernel =
                focus_profile(kernel_run.profile, kernel_run.profile.focus,
                              *clone->find_function("kernel_x"));
            EXPECT_GT(kernel.focus.calls, 0);
            EXPECT_TRUE(cand.region == kernel);
            EXPECT_EQ(cand.region.focus.calls, kernel.focus.calls);
            EXPECT_EQ(cand.region.focus.cost, kernel.focus.cost);
            EXPECT_EQ(cand.region.focus.buffers.size(),
                      kernel.focus.buffers.size());
        }
        if (engine == interp::Engine::Vm) out = std::move(report.candidates);
    }
    return out;
}

TEST(RegionFocus, OutermostLoopsNestAcrossACall) {
    // The rushlarsen shape: the time loop of `run` calls `step`, whose
    // spatial loop is the hotspot. Both are outermost in their functions,
    // so while `step` runs two regions are open at once. The accesses just
    // before the spatial loop belong to the time loop's region only.
    auto [mod, types] = parse_and_check(R"(
void step(int n, double* v, double* g, double dt) {
    g[n - 1] = g[n - 1] + v[0];
    for (int i = 0; i < n; i++) {
        double a = exp(0.0 - v[i]);
        for (int k = 0; k < 3; k++) {
            g[i] = g[i] * a + dt;
        }
        v[i] = v[i] + dt * g[i];
    }
}

void run(int n, int steps, double* v, double* g) {
    double dt = 0.01;
    for (int t = 0; t < steps; t++) {
        v[t] = v[t] * 0.5;
        step(n, v, g, dt);
    }
}
)");
    Workload w;
    w.entry = "run";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(12 * scale);
        return std::vector<interp::Arg>{
            integer(n), integer(5),
            std::make_shared<interp::Buffer>(Type::Double, n, "v"),
            std::make_shared<interp::Buffer>(Type::Double, n, "g")};
    };
    const auto cands = expect_regions_match_kernels(*mod, w);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].function->name, "step"); // ranked by self cost
    EXPECT_EQ(cands[0].region.focus.calls, 5);
    EXPECT_EQ(cands[0].region.loops.size(), 2u);
    EXPECT_EQ(cands[1].function->name, "run");
    EXPECT_EQ(cands[1].region.focus.calls, 1);
    // The time loop's region sees the accesses `step` makes for it.
    ASSERT_EQ(cands[1].region.focus.buffers.size(), 2u);
    EXPECT_EQ(cands[1].region.focus.buffers[0].buffer_name, "v");
    EXPECT_EQ(cands[1].region.focus.buffers[0].writes, 5 + 5 * 12);
    EXPECT_EQ(cands[0].region.focus.buffers[0].writes, 5 * 12);
    EXPECT_GT(cands[1].region.focus.cost, cands[0].region.focus.cost);
}

TEST(RegionFocus, AliasedFreeArrays) {
    auto [mod, types] = parse_and_check(R"(
void app(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1.0;
    }
}

void run(int n, double* a) {
    app(n, a, a);
}
)");
    Workload w;
    w.entry = "run";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(8 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(Type::Double, 64, "a")};
    };
    const auto cands = expect_regions_match_kernels(*mod, w);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_TRUE(cands[0].region.focus.args_alias);
    // One buffer behind both names: one access summary, named first.
    ASSERT_EQ(cands[0].region.focus.buffers.size(), 1u);
    EXPECT_EQ(cands[0].region.focus.buffers[0].buffer_name, "a");
}

TEST(RegionFocus, HotLoopInAFunctionCalledThreeTimes) {
    auto [mod, types] = parse_and_check(R"(
void work(int n, int off, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        a[i + off] = a[i + off] * 2.0 + b[i];
    }
}

void run(int n, double* a, double* b, double* c) {
    work(n, 0, a, b);
    work(n, 2, a, c);
    work(n, 4, a, b);
}
)");
    Workload w;
    w.entry = "run";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(10 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(Type::Double, n + 4, "a"),
            std::make_shared<interp::Buffer>(Type::Double, n, "b"),
            std::make_shared<interp::Buffer>(Type::Double, n, "c")};
    };
    const auto cands = expect_regions_match_kernels(*mod, w);
    ASSERT_EQ(cands.size(), 1u);
    const interp::FocusStats& region = cands[0].region.focus;
    EXPECT_EQ(region.calls, 3);
    EXPECT_FALSE(region.args_alias);
    // a, then b, then c under the name of the parameter it was passed for.
    ASSERT_EQ(region.buffers.size(), 3u);
    EXPECT_EQ(region.buffers[0].buffer_name, "a");
    EXPECT_EQ(region.buffers[0].min_write, 0);
    EXPECT_EQ(region.buffers[0].max_write, 13);
    EXPECT_EQ(region.buffers[1].buffer_name, "b");
    EXPECT_EQ(region.buffers[1].reads, 20);
    EXPECT_EQ(region.buffers[2].buffer_name, "b");
    EXPECT_EQ(region.buffers[2].reads, 10);
    ASSERT_EQ(cands[0].region.loops.size(), 1u);
    EXPECT_EQ(cands[0].region.loops[0]->entries, 3);
}

TEST(RegionFocus, SeededCharacterizationMatchesTwoRuns) {
    // Characterisation seeded with the hotspot region at profile scale
    // fits exactly what it fits from two runs, with one run fewer.
    auto [mod, types] = parse_and_check(R"(
void app(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] = a[i] + sqrt(b[j] * 0.5 + 1.0);
        }
    }
}
)");
    Workload w;
    w.entry = "app";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(8 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(Type::Double, n, "a"),
            std::make_shared<interp::Buffer>(Type::Double, n, "b")};
    };
    const HotspotReport report = detect_hotspots(*mod, types, w);
    ASSERT_NE(report.top(), nullptr);
    const FocusProfile region = report.top()->region;
    (void)transform::extract_hotspot(*mod, types, *report.top()->loop,
                                     "kernel");
    const sema::TypeInfo kernel_types = sema::check(*mod);

    ProfileCache cache;
    const auto seeded =
        characterize_kernel(*mod, kernel_types, "kernel", w, &cache, &region);
    EXPECT_EQ(cache.stats().misses, 1u);
    const auto ran = characterize_kernel(*mod, kernel_types, "kernel", w);

    for (const auto& [got, want] :
         {std::pair{seeded.flops, ran.flops},
          std::pair{seeded.call_flops, ran.call_flops},
          std::pair{seeded.mem_bytes, ran.mem_bytes},
          std::pair{seeded.footprint, ran.footprint},
          std::pair{seeded.cpu_cost, ran.cpu_cost}}) {
        EXPECT_EQ(got.base, want.base);
        EXPECT_EQ(got.exponent, want.exponent);
    }
    EXPECT_EQ(seeded.kernel_calls, ran.kernel_calls);
    EXPECT_EQ(seeded.args_alias, ran.args_alias);
    ASSERT_EQ(seeded.buffers.size(), ran.buffers.size());
    ASSERT_EQ(seeded.loops.size(), 2u);
    ASSERT_EQ(ran.loops.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(seeded.loops[i].loop_id, ran.loops[i].loop_id);
        EXPECT_EQ(seeded.loops[i].entries, ran.loops[i].entries);
        EXPECT_EQ(seeded.loops[i].trips_total.base,
                  ran.loops[i].trips_total.base);
        EXPECT_EQ(seeded.loops[i].flops.exponent, ran.loops[i].flops.exponent);
    }
}

// --------------------------------------------------------- profile cache ----

TEST(ProfileCache, RemapsLoopStatsOntoClonedNodeIds) {
    auto [mod, types] = parse_and_check(R"(
void run(int n, double* a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 4; j++) {
            a[i] = a[i] * 2.0 + 1.0;
        }
    }
}
)");
    const auto make_args = [] {
        std::vector<interp::Arg> args;
        args.push_back(integer(6));
        args.emplace_back(
            std::make_shared<interp::Buffer>(Type::Double, 6, "a"));
        return args;
    };

    ProfileCache cache;
    const auto before = cache.stats();

    const auto first = cache.run(*mod, types, "run", make_args());
    EXPECT_EQ(cache.stats().misses, before.misses + 1);

    // A clone prints identically but all nodes carry fresh ids, so a naive
    // cache hit would hand back stats keyed by ids that do not occur in the
    // clone at all.
    auto clone = ast::clone_module(*mod);
    auto clone_types = sema::check(*clone);
    const auto second = cache.run(*clone, clone_types, "run", make_args());
    EXPECT_EQ(cache.stats().hits, before.hits + 1);

    const auto orig_loops = meta::for_loops(*mod);
    const auto clone_loops = meta::for_loops(*clone);
    ASSERT_EQ(orig_loops.size(), 2u);
    ASSERT_EQ(clone_loops.size(), 2u);
    for (std::size_t i = 0; i < clone_loops.size(); ++i) {
        ASSERT_NE(orig_loops[i]->id, clone_loops[i]->id);
        const auto* orig = first.loop(orig_loops[i]->id);
        const auto* remapped = second.loop(clone_loops[i]->id);
        ASSERT_NE(orig, nullptr);
        ASSERT_NE(remapped, nullptr) << "stats not remapped onto clone ids";
        EXPECT_EQ(remapped->entries, orig->entries);
        EXPECT_EQ(remapped->trips, orig->trips);
        EXPECT_DOUBLE_EQ(remapped->cost, orig->cost);
        EXPECT_DOUBLE_EQ(remapped->self_cost, orig->self_cost);
        // Stale original ids must not leak into the remapped profile.
        EXPECT_EQ(second.loop(orig_loops[i]->id), nullptr);
    }
    EXPECT_EQ(second.loops.size(), first.loops.size());
    EXPECT_DOUBLE_EQ(second.total_cost, first.total_cost);

    // The outer loop enters once and trips n times; the fixed inner loop
    // enters n times — a sanity anchor that the stats are the real ones.
    EXPECT_EQ(first.loop(orig_loops[0]->id)->entries, 1);
    EXPECT_EQ(first.loop(orig_loops[1]->id)->entries, 6);
    cache.clear();
}

} // namespace
} // namespace psaflow
