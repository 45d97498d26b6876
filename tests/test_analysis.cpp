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
