#include <gtest/gtest.h>

#include <set>

#include "analysis/hotspot.hpp"
#include "apps/apps.hpp"
#include "ast/printer.hpp"
#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "meta/query.hpp"
#include "platform/devices.hpp"
#include "platform/fpga.hpp"
#include "transform/extract.hpp"
#include "transform/fission.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::transform;
using psaflow::testing::parse_and_check;

interp::Arg integer(long long v) { return interp::Value::of_int(v); }

const char* kSplittable = R"(
void knl(int n, double* a, double* b, double* out) {
    for (int i = 0; i < n; i = i + 1) {
        double x = a[i] * 2.0;
        double y = x + b[i];
        double z = y * y;
        out[i] = z + x;
    }
}

void host(int n, double* a, double* b, double* out) {
    knl(n, a, b, out);
}
)";

std::vector<double> run_host(const ast::Module& mod, int n) {
    auto types = sema::check(mod);
    auto a = std::make_shared<interp::Buffer>(ast::Type::Double, 64, "a");
    auto b = std::make_shared<interp::Buffer>(ast::Type::Double, 64, "b");
    auto out = std::make_shared<interp::Buffer>(ast::Type::Double, 64, "out");
    for (int i = 0; i < 64; ++i) {
        a->store(i, 0.5 * i);
        b->store(i, 3.0 - 0.25 * i);
    }
    interp::Interpreter in(mod, types);
    in.call("host", {integer(n), a, b, out});
    return out->raw();
}

TEST(Fission, SplitsIntoTwoPartsWithSpills) {
    auto [mod, types] = parse_and_check(kSplittable);
    auto result = split_kernel(*mod, types, "knl", 2);

    EXPECT_EQ(result.part1, "knl_part1");
    EXPECT_EQ(result.part2, "knl_part2");
    // x and y are declared before the cut; x and y are used after it.
    EXPECT_EQ(result.spilled, (std::vector<std::string>{"x", "y"}));

    EXPECT_EQ(mod->find_function("knl"), nullptr);
    ASSERT_NE(mod->find_function("knl_part1"), nullptr);
    ASSERT_NE(mod->find_function("knl_part2"), nullptr);

    const std::string src = ast::to_source(*mod);
    EXPECT_NE(src.find("double knl_x_spill[n];"), std::string::npos);
    EXPECT_NE(src.find("knl_part1(n, a, b, out, knl_x_spill, knl_y_spill);"),
              std::string::npos);
    EXPECT_NE(src.find("x_spill[i] = x;"), std::string::npos);
    EXPECT_NE(src.find("double x = x_spill[i];"), std::string::npos);

    // Still type checks.
    EXPECT_NO_THROW((void)sema::check(*mod));
}

TEST(Fission, PreservesBehaviour) {
    auto [reference, rtypes] = parse_and_check(kSplittable);
    for (std::size_t cut = 1; cut <= 3; ++cut) {
        auto [mod, types] = parse_and_check(kSplittable);
        (void)split_kernel(*mod, types, "knl", cut);
        EXPECT_EQ(run_host(*mod, 64), run_host(*reference, 64))
            << "cut=" << cut;
        EXPECT_EQ(run_host(*mod, 7), run_host(*reference, 7))
            << "cut=" << cut;
    }
}

TEST(Fission, RecursiveSplitQuartersTheKernel) {
    auto [reference, rtypes] = parse_and_check(kSplittable);
    auto [mod, types] = parse_and_check(kSplittable);
    (void)split_kernel(*mod, types, "knl", 2);
    auto types2 = sema::check(*mod);
    (void)split_kernel(*mod, types2, "knl_part1", 1);
    EXPECT_EQ(run_host(*mod, 64), run_host(*reference, 64));
}

TEST(Fission, SplittingAPartAgainKeepsSpillParametersDistinct) {
    // Splitting knl_part1 again spills x a second time; the new spill
    // parameter must not reuse the name the first split gave its own.
    auto [reference, rtypes] = parse_and_check(kSplittable);
    auto [mod, types] = parse_and_check(kSplittable);
    (void)split_kernel(*mod, types, "knl", 2);
    auto types2 = sema::check(*mod);
    (void)split_kernel(*mod, types2, "knl_part1", 1);

    const ast::Function* twice = mod->find_function("knl_part1_part1");
    ASSERT_NE(twice, nullptr);
    std::set<std::string> names;
    for (const auto& p : twice->params)
        EXPECT_TRUE(names.insert(p->name).second)
            << "duplicate parameter " << p->name;
    EXPECT_NE(ast::to_source(*mod).find("x_spill2"), std::string::npos);
    EXPECT_NO_THROW((void)sema::check(*mod));
    EXPECT_EQ(run_host(*mod, 64), run_host(*reference, 64));
}

TEST(Fission, RejectsSequentialLoops) {
    auto [mod, types] = parse_and_check(R"(
void knl(int n, double* a) {
    for (int i = 0; i < n; i = i + 1) {
        double x = a[i + 1];
        a[i] = x;
    }
}

void host(int n, double* a) {
    knl(n, a);
}
)");
    EXPECT_THROW((void)split_kernel(*mod, types, "knl", 1), Error);
}

TEST(Fission, RejectsBadCutIndices) {
    auto [mod, types] = parse_and_check(kSplittable);
    EXPECT_THROW((void)split_kernel(*mod, types, "knl", 0), Error);
    EXPECT_THROW((void)split_kernel(*mod, types, "knl", 99), Error);
    EXPECT_THROW((void)split_kernel(*mod, types, "nope", 1), Error);
}

TEST(Fission, BalancedCutSplitsAreaEvenly) {
    auto [mod, types] = parse_and_check(R"(
void knl(int n, double* a) {
    for (int i = 0; i < n; i = i + 1) {
        double h = exp(a[i]) + exp(a[i] * 2.0);
        a[i] = h + 1.0;
        a[i] = a[i] * 2.0;
        a[i] = a[i] + 3.0;
    }
}

void host(int n, double* a) {
    knl(n, a);
}
)");
    // The exp-heavy first statement dominates: the balanced cut lands
    // right after it.
    EXPECT_EQ(balanced_cut_point(*mod, types, "knl"), 1u);
}

TEST(Fission, RushLarsenBecomesSynthesizableOnStratix) {
    // The paper's future-work scenario: Rush Larsen overmaps both FPGAs at
    // unroll 1; after loop splitting, each half fits the Stratix10.
    const auto& app = apps::rush_larsen();
    auto mod = frontend::parse_module(app.source, app.name);
    auto types = sema::check(*mod);
    auto report = analysis::detect_hotspots(*mod, types, app.workload);
    transform::extract_hotspot(*mod, types, *report.top()->loop, "rl_kernel");
    types = sema::check(*mod);

    platform::FpgaModel s10(platform::stratix10());
    const auto whole = s10.report(*mod->find_function("rl_kernel"), types, 1);
    ASSERT_TRUE(whole.overmapped); // precondition: the paper's observation

    const std::size_t cut = balanced_cut_point(*mod, types, "rl_kernel");
    ASSERT_GT(cut, 0u);
    auto split = split_kernel(*mod, types, "rl_kernel", cut);
    types = sema::check(*mod);

    const auto p1 = s10.report(*mod->find_function(split.part1), types, 1);
    const auto p2 = s10.report(*mod->find_function(split.part2), types, 1);
    EXPECT_FALSE(p1.overmapped);
    EXPECT_FALSE(p2.overmapped);

    // And behaviour is preserved on the real workload.
    auto reference = frontend::parse_module(app.source, app.name);
    auto run_buffers = [&](const ast::Module& m) {
        auto t = sema::check(m);
        auto args = app.workload.make_args(1.0);
        interp::Interpreter in(m, t);
        in.call("run", args);
        std::vector<std::vector<double>> out;
        for (const auto& arg : args) {
            if (const auto* buf = std::get_if<interp::BufferPtr>(&arg))
                out.push_back((*buf)->raw());
        }
        return out;
    };
    EXPECT_EQ(run_buffers(*reference), run_buffers(*mod));
}

} // namespace
} // namespace psaflow
