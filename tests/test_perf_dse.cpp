#include <gtest/gtest.h>

#include "analysis/characterize.hpp"
#include "apps/apps.hpp"
#include "dse/dse.hpp"
#include "perf/estimator.hpp"
#include "perf/shape_builder.hpp"
#include "platform/devices.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::platform;
using psaflow::testing::parse_and_check;

interp::Arg integer(long long v) { return interp::Value::of_int(v); }

// ------------------------------------------------------------ registers ----

TEST(RegsEstimate, SmallKernelModest) {
    auto [mod, types] = parse_and_check(R"(
void knl(int n, double* a) {
    for (int i = 0; i < n; i = i + 1) {
        a[i] = a[i] * 2.0;
    }
}
)");
    const int regs =
        perf::estimate_regs_per_thread(*mod->find_function("knl"), true);
    EXPECT_LT(regs, 64);
    EXPECT_GE(regs, 16);
}

TEST(RegsEstimate, DoubleNeedsMoreThanSingle) {
    auto [mod, types] = parse_and_check(R"(
void knl(int n, double* a) {
    for (int i = 0; i < n; i = i + 1) {
        double x = a[i];
        double y = x * 2.0;
        double z = y + x;
        a[i] = z;
    }
}
)");
    const auto& fn = *mod->find_function("knl");
    EXPECT_GT(perf::estimate_regs_per_thread(fn, true),
              perf::estimate_regs_per_thread(fn, false));
}

TEST(RegsEstimate, RushLarsenSaturatesAt255) {
    auto mod = frontend::parse_module(apps::rush_larsen().source, "rl");
    const auto* step = mod->find_function("rush_larsen_step");
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(perf::estimate_regs_per_thread(*step, true), 255);
}

// --------------------------------------------------------- shape builder ---

struct ShapeFixture {
    ast::ModulePtr mod;
    sema::TypeInfo types;
    analysis::KernelCharacterization ch;

    explicit ShapeFixture(const char* src, const char* kernel,
                          std::function<std::vector<interp::Arg>(double)>
                              args) {
        mod = frontend::parse_module(src, "t");
        types = sema::check(*mod);
        analysis::Workload w;
        w.entry = "run";
        w.make_args = std::move(args);
        ch = analysis::characterize_kernel(*mod, types, kernel, w);
    }

    KernelShape shape(perf::ShapeOptions opt = {}) {
        return perf::build_kernel_shape(*mod->find_function(ch.kernel), *mod,
                                        ch, opt);
    }
};

const char* kRescanSrc = R"(
void knl(int n, double* pos, double* out) {
    for (int i = 0; i < n; i = i + 1) {
        double acc = 0.0;
        for (int j = 0; j < n; j = j + 1) {
            acc += pos[j];
        }
        out[i] = acc;
    }
}

void run(int n, double* pos, double* out) {
    knl(n, pos, out);
}
)";

ShapeFixture rescan_fixture() {
    return ShapeFixture(kRescanSrc, "knl", [](double scale) {
        const int n = static_cast<int>(64 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(ast::Type::Double, 1024, "pos"),
            std::make_shared<interp::Buffer>(ast::Type::Double, 1024, "out")};
    });
}

TEST(ShapeBuilder, RescannedArraysPayFullFpgaTraffic) {
    auto fx = rescan_fixture();
    perf::ShapeOptions opt;
    opt.relative_scale = 8.0;
    // Shrink the on-chip threshold so `pos` (512 x 8B at scale 8) is
    // classified off-chip and the rescan rule bites.
    opt.fpga_onchip_threshold_bytes = 1024.0;
    const auto shape = fx.shape(opt);
    // pos is read n times per outer iteration: O(n^2) bytes, far above its
    // footprint.
    EXPECT_GT(shape.fpga_traffic(), 10.0 * shape.footprint_bytes);
}

TEST(ShapeBuilder, StreamedArraysPayFootprintOnly) {
    ShapeFixture fx(R"(
void knl(int n, double* a, double* b) {
    for (int i = 0; i < n; i = i + 1) {
        for (int r = 0; r < 4; r = r + 1) {
            b[i] = b[i] + a[i] * 0.5;
        }
    }
}

void run(int n, double* a, double* b) {
    knl(n, a, b);
}
)",
                    "knl", [](double scale) {
                        const int n = static_cast<int>(64 * scale);
                        return std::vector<interp::Arg>{
                            integer(n),
                            std::make_shared<interp::Buffer>(
                                ast::Type::Double, 1024, "a"),
                            std::make_shared<interp::Buffer>(
                                ast::Type::Double, 1024, "b")};
                    });
    perf::ShapeOptions opt;
    opt.relative_scale = 8.0;
    opt.fpga_onchip_threshold_bytes = 16.0; // force everything off-chip
    const auto shape = fx.shape(opt);
    // a and b are accessed 4-12x per element but advance with i: traffic
    // collapses to ~footprint (x1 invocation).
    EXPECT_LT(shape.fpga_traffic(), 1.5 * shape.footprint_bytes);
    EXPECT_GT(shape.stream_bytes, 3.0 * shape.footprint_bytes);
}

TEST(ShapeBuilder, DependentFractionCountsCarriedOnly) {
    // Reduction-only inner loop => dependent fraction 0.
    auto fx = rescan_fixture();
    const auto shape = fx.shape();
    EXPECT_DOUBLE_EQ(shape.dependent_fraction, 0.0);

    // Carried (non-reduction) inner loop => fraction ~1.
    ShapeFixture carried(R"(
void knl(int n, double* a, double* out) {
    for (int i = 0; i < n; i = i + 1) {
        double s = 1.0;
        for (int j = 0; j < 16; j = j + 1) {
            s = s * 1.5 - a[j] * s;
        }
        out[i] = s;
    }
}

void run(int n, double* a, double* out) {
    knl(n, a, out);
}
)",
                         "knl", [](double scale) {
                             const int n = static_cast<int>(32 * scale);
                             return std::vector<interp::Arg>{
                                 integer(n),
                                 std::make_shared<interp::Buffer>(
                                     ast::Type::Double, 64, "a"),
                                 std::make_shared<interp::Buffer>(
                                     ast::Type::Double, 64, "out")};
                         });
    EXPECT_GT(carried.shape().dependent_fraction, 0.9);
}

TEST(ShapeBuilder, TranscendentalFraction) {
    ShapeFixture fx(R"(
void knl(int n, double* a) {
    for (int i = 0; i < n; i = i + 1) {
        a[i] = exp(a[i]);
    }
}

void run(int n, double* a) {
    knl(n, a);
}
)",
                    "knl", [](double scale) {
                        const int n = static_cast<int>(32 * scale);
                        return std::vector<interp::Arg>{
                            integer(n), std::make_shared<interp::Buffer>(
                                            ast::Type::Double, 64, "a")};
                    });
    const auto shape = fx.shape();
    // exp is the only flop source here.
    EXPECT_NEAR(shape.transcendental_fraction, 1.0, 0.01);
}

TEST(ShapeBuilder, SequentialCyclesPerIter) {
    auto fx = rescan_fixture();
    const auto shape = fx.shape();
    // Inner loop runs n=64 trips per outer iteration at profile scale.
    EXPECT_NEAR(shape.sequential_cycles_per_iter, 64.0, 1.0);
}

TEST(ShapeBuilder, ScaleExtrapolation) {
    auto fx = rescan_fixture();
    perf::ShapeOptions base;
    perf::ShapeOptions big;
    big.relative_scale = 4.0;
    const auto s1 = fx.shape(base);
    const auto s4 = fx.shape(big);
    EXPECT_NEAR(s4.flops / s1.flops, 16.0, 1.5);          // O(n^2)
    EXPECT_NEAR(s4.parallel_iters / s1.parallel_iters, 4.0, 0.2);
}

// ------------------------------------------------------------------ DSE ----

TEST(Dse, UnrollDoublesUntilOvermap) {
    auto [mod, types] = parse_and_check(R"(
void knl(int n, double* a) {
    for (int i = 0; i < n; i = i + 1) {
        a[i] = exp(a[i]) + exp(a[i] * 2.0) + exp(a[i] * 3.0)
             + exp(a[i] * 4.0) + exp(a[i] * 5.0);
    }
}
)");
    FpgaModel fpga(arria10());
    auto result = dse::unroll_until_overmap(fpga, *mod->find_function("knl"),
                                            types, 1 << 12);
    ASSERT_TRUE(result.synthesizable());
    EXPECT_GE(result.unroll, 2);
    // Trace is a doubling sequence ending in the first overmap (or the
    // max_unroll cap).
    for (std::size_t i = 1; i < result.trace.size(); ++i) {
        EXPECT_EQ(result.trace[i].unroll, 2 * result.trace[i - 1].unroll);
        EXPECT_GE(result.trace[i].utilisation,
                  result.trace[i - 1].utilisation);
    }
    if (result.trace.back().overmapped) {
        EXPECT_EQ(result.unroll, result.trace.back().unroll / 2);
    }
    EXPECT_LE(result.report.utilisation(), fpga.spec().overmap_threshold);
}

TEST(Dse, UnrollRespectsMaxBound) {
    auto [mod, types] = parse_and_check(R"(
void knl(int n, double* a) {
    for (int i = 0; i < n; i = i + 1) {
        a[i] = a[i] + 1.0;
    }
}
)");
    FpgaModel fpga(stratix10());
    auto result = dse::unroll_until_overmap(fpga, *mod->find_function("knl"),
                                            types, 8);
    EXPECT_LE(result.unroll, 8);
}

TEST(Dse, BlocksizeSweepsPowersOfTwo) {
    GpuModel gpu(rtx2080ti());
    KernelShape shape;
    shape.flops = 1e11;
    shape.parallel_iters = 1e7;
    shape.double_precision = false;
    shape.regs_per_thread = 64;
    auto result = dse::blocksize_dse(gpu, shape);
    ASSERT_EQ(result.trace.size(), 6u); // 32..1024
    EXPECT_GE(result.block_size, 32);
    EXPECT_LE(result.block_size, 1024);
    // The chosen point is no slower than any traced point.
    for (const auto& step : result.trace) {
        EXPECT_LE(result.seconds, step.seconds * (1.0 + 1e-9));
    }
}

TEST(Dse, BlocksizeAvoidsUnlaunchableConfigs) {
    GpuModel gpu(rtx2080ti());
    KernelShape shape;
    shape.flops = 1e10;
    shape.parallel_iters = 1e7;
    shape.regs_per_thread = 255; // big blocks cannot launch
    shape.double_precision = true;
    auto result = dse::blocksize_dse(gpu, shape);
    EXPECT_LT(result.seconds, 1e20);
    EXPECT_LE(result.block_size, 256);
}

TEST(Dse, OmpThreadsPicksAllCoresForParallelWork) {
    CpuModel cpu(epyc7543());
    KernelShape shape;
    shape.flops = 1e12;
    shape.footprint_bytes = 1e6;
    shape.parallel_iters = 1e8;
    auto result = dse::omp_threads_dse(cpu, shape);
    EXPECT_EQ(result.threads, cpu.spec().cores);
    EXPECT_FALSE(result.trace.empty());
}

TEST(Dse, OmpThreadsStopsAtConcurrencyLimit) {
    CpuModel cpu(epyc7543());
    KernelShape shape;
    shape.flops = 1e12;
    shape.footprint_bytes = 1e6;
    shape.parallel_iters = 2.0; // only two iterations to share
    auto result = dse::omp_threads_dse(cpu, shape);
    EXPECT_LE(result.threads, 4);
}

// ------------------------------------------------------------- estimator ---

TEST(Estimator, TransferEstimateUsesBestLink) {
    KernelShape shape;
    shape.bytes_in = 1e9;
    shape.bytes_out = 1e9;
    const double t = perf::transfer_seconds_estimate(shape);
    const double best_bw =
        std::max({gtx1080ti().pcie_pinned_bw_gbs,
                  rtx2080ti().pcie_pinned_bw_gbs, stratix10().usm_bw_gbs}) *
        1e9;
    EXPECT_NEAR(t, 2e9 / best_bw, 1e-6);
}

TEST(Estimator, CpuReferenceMatchesModel) {
    KernelShape shape;
    shape.flops = 5.6e9;
    shape.footprint_bytes = 1.0;
    EXPECT_NEAR(perf::cpu_reference_seconds(shape), 1.0, 1e-9);
}

} // namespace
} // namespace psaflow
