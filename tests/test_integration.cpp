// End-to-end integration tests: the paper's evaluation claims, asserted.
// Each test runs the complete PSA-flow (parse -> hotspot -> analyses ->
// branch points -> transforms -> DSE -> emission -> performance estimate)
// on the real benchmark applications.
#include <gtest/gtest.h>

#include "core/psaflow.hpp"
#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "support/string_util.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using codegen::TargetKind;
using platform::DeviceId;

flow::FlowResult informed(const apps::Application& app) {
    RunOptions options;
    options.mode = flow::Mode::Informed;
    flow::FlowSession session;
    return compile(session, app, options);
}

flow::FlowResult uninformed(const apps::Application& app) {
    RunOptions options;
    options.mode = flow::Mode::Uninformed;
    flow::FlowSession session;
    return compile(session, app, options);
}

// ----------------------------------------------------- informed selection --

TEST(InformedSelection, NBodyGoesGpu) {
    auto result = informed(apps::nbody());
    ASSERT_FALSE(result.designs.empty());
    for (const auto& d : result.designs)
        EXPECT_EQ(d.spec.target, TargetKind::CpuGpu);
}

TEST(InformedSelection, RushLarsenGoesGpu) {
    auto result = informed(apps::rush_larsen());
    ASSERT_FALSE(result.designs.empty());
    for (const auto& d : result.designs)
        EXPECT_EQ(d.spec.target, TargetKind::CpuGpu);
}

TEST(InformedSelection, BezierGoesGpu) {
    auto result = informed(apps::bezier());
    ASSERT_FALSE(result.designs.empty());
    for (const auto& d : result.designs)
        EXPECT_EQ(d.spec.target, TargetKind::CpuGpu);
}

TEST(InformedSelection, AdPredictorGoesFpga) {
    auto result = informed(apps::adpredictor());
    ASSERT_FALSE(result.designs.empty());
    for (const auto& d : result.designs)
        EXPECT_EQ(d.spec.target, TargetKind::CpuFpga);
}

TEST(InformedSelection, KMeansGoesCpu) {
    auto result = informed(apps::kmeans());
    ASSERT_EQ(result.designs.size(), 1u);
    EXPECT_EQ(result.designs[0].spec.target, TargetKind::CpuOpenMp);
}

TEST(InformedSelection, MatchesBestOfAllDesignsForEveryApp) {
    // The paper's headline: "the informed PSA-flow selects the best target
    // for all of the five benchmarks".
    for (const apps::Application* app : apps::all_applications()) {
        auto one = informed(*app);
        auto all = uninformed(*app);
        const auto* chosen = one.best();
        const auto* oracle = all.best();
        ASSERT_NE(chosen, nullptr) << app->name;
        ASSERT_NE(oracle, nullptr) << app->name;
        EXPECT_EQ(chosen->spec.target, oracle->spec.target) << app->name;
        EXPECT_NEAR(chosen->speedup, oracle->speedup,
                    0.02 * oracle->speedup)
            << app->name;
    }
}

// ----------------------------------------------------------- Fig. 5 shape --

TEST(Fig5Shape, OmpSpeedupsNearCoreCount) {
    // Paper: "speedups ranging from 28-30x ... close to the number of
    // cores (32), as expected".
    for (const apps::Application* app : apps::all_applications()) {
        auto all = uninformed(*app);
        const auto* omp = all.find(TargetKind::CpuOpenMp,
                                   DeviceId::Epyc7543);
        ASSERT_NE(omp, nullptr) << app->name;
        EXPECT_GT(omp->speedup, 25.0) << app->name;
        EXPECT_LT(omp->speedup, 32.0) << app->name;
        EXPECT_EQ(omp->spec.omp_threads, 32) << app->name;
    }
}

TEST(Fig5Shape, RtxBeatsGtxOnEveryBenchmark) {
    for (const apps::Application* app : apps::all_applications()) {
        auto all = uninformed(*app);
        const auto* gtx = all.find(TargetKind::CpuGpu, DeviceId::Gtx1080Ti);
        const auto* rtx = all.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
        ASSERT_NE(gtx, nullptr) << app->name;
        ASSERT_NE(rtx, nullptr) << app->name;
        EXPECT_GE(rtx->speedup, gtx->speedup * 0.99) << app->name;
    }
}

TEST(Fig5Shape, StratixBeatsArriaWhereSynthesizable) {
    for (const apps::Application* app : apps::all_applications()) {
        auto all = uninformed(*app);
        const auto* a10 = all.find(TargetKind::CpuFpga, DeviceId::Arria10);
        const auto* s10 = all.find(TargetKind::CpuFpga, DeviceId::Stratix10);
        ASSERT_NE(a10, nullptr) << app->name;
        ASSERT_NE(s10, nullptr) << app->name;
        if (a10->synthesizable && s10->synthesizable) {
            EXPECT_GT(s10->speedup, a10->speedup) << app->name;
        }
    }
}

TEST(Fig5Shape, NBodyGpuRatioMatchesPaper) {
    // Paper: RTX 2080 Ti more than 2x the GTX 1080 Ti on N-Body
    // (751x vs 337x): both fully saturated.
    auto all = uninformed(apps::nbody());
    const auto* gtx = all.find(TargetKind::CpuGpu, DeviceId::Gtx1080Ti);
    const auto* rtx = all.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
    EXPECT_GT(rtx->speedup / gtx->speedup, 1.9);
    EXPECT_GT(rtx->speedup, 400.0);
    EXPECT_GT(gtx->speedup, 200.0);
}

TEST(Fig5Shape, RushLarsenRegisterSaturationStory) {
    // Paper: 255 registers/thread saturate the GTX 1080 Ti but not the
    // RTX 2080 Ti (98x vs 63x, a 1.56x gap).
    auto all = uninformed(apps::rush_larsen());
    const auto* gtx = all.find(TargetKind::CpuGpu, DeviceId::Gtx1080Ti);
    const auto* rtx = all.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
    EXPECT_EQ(rtx->shape.regs_per_thread, 255);
    const double ratio = rtx->speedup / gtx->speedup;
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 1.9);
}

TEST(Fig5Shape, BezierGpusNearlyEqual) {
    // Paper: "neither GPU is fully saturated, the difference in
    // performance is less substantial (67x vs 63x)".
    auto all = uninformed(apps::bezier());
    const auto* gtx = all.find(TargetKind::CpuGpu, DeviceId::Gtx1080Ti);
    const auto* rtx = all.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
    EXPECT_LT(rtx->speedup / gtx->speedup, 1.25);
}

TEST(Fig5Shape, RushLarsenFpgaDesignsOvermap) {
    // Paper: "the resulting designs are sizeable and exceed the capacity
    // of our current FPGA devices".
    auto all = uninformed(apps::rush_larsen());
    const auto* a10 = all.find(TargetKind::CpuFpga, DeviceId::Arria10);
    const auto* s10 = all.find(TargetKind::CpuFpga, DeviceId::Stratix10);
    ASSERT_NE(a10, nullptr);
    ASSERT_NE(s10, nullptr);
    EXPECT_FALSE(a10->synthesizable);
    EXPECT_FALSE(s10->synthesizable);
    // The emitted sources still exist and carry the warning.
    EXPECT_NE(a10->source.find("WARNING: design overmaps"),
              std::string::npos);
}

TEST(Fig5Shape, NBodyFpgaBarelyBeatsCpu) {
    // Paper: 1.1x / 1.4x — the O(n^2) rescan of positions is DDR-bound.
    auto all = uninformed(apps::nbody());
    const auto* a10 = all.find(TargetKind::CpuFpga, DeviceId::Arria10);
    const auto* s10 = all.find(TargetKind::CpuFpga, DeviceId::Stratix10);
    EXPECT_GT(a10->speedup, 0.5);
    EXPECT_LT(a10->speedup, 5.0);
    EXPECT_GT(s10->speedup, 1.0);
    EXPECT_LT(s10->speedup, 8.0);
}

TEST(Fig5Shape, AdPredictorStratixIsOverallBest) {
    // Paper: the Stratix10 CPU+FPGA design achieves the best performance
    // across all targets (32x), with II=1 full unrolling of the inner
    // feature loop.
    auto all = uninformed(apps::adpredictor());
    const auto* s10 = all.find(TargetKind::CpuFpga, DeviceId::Stratix10);
    ASSERT_NE(s10, nullptr);
    EXPECT_EQ(all.best(), s10);
    EXPECT_TRUE(s10->spec.zero_copy);
    EXPECT_GE(s10->spec.unroll, 2);
}

// --------------------------------------------------------- Table I shape ---

TEST(Table1Shape, LocOrderingPerApplication) {
    // OMP adds the least code; the oneAPI S10 (USM) variant adds more than
    // the A10 (buffer) variant.
    for (const apps::Application* app : apps::all_applications()) {
        auto all = uninformed(*app);
        const auto* omp = all.find(TargetKind::CpuOpenMp,
                                   DeviceId::Epyc7543);
        const auto* hip = all.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
        const auto* a10 = all.find(TargetKind::CpuFpga, DeviceId::Arria10);
        const auto* s10 = all.find(TargetKind::CpuFpga,
                                   DeviceId::Stratix10);
        ASSERT_NE(omp, nullptr);
        ASSERT_NE(hip, nullptr);
        EXPECT_LT(omp->loc_delta, hip->loc_delta) << app->name;
        if (a10 != nullptr && s10 != nullptr) {
            EXPECT_LT(omp->loc_delta, a10->loc_delta) << app->name;
            EXPECT_GT(s10->loc_delta, a10->loc_delta) << app->name;
        }
    }
}

TEST(Table1Shape, HipDesignsIdenticalAcrossGpus) {
    // Paper Table I reports one HIP column per GPU with identical deltas:
    // blocksize is the only difference and it is one line either way.
    auto all = uninformed(apps::nbody());
    const auto* gtx = all.find(TargetKind::CpuGpu, DeviceId::Gtx1080Ti);
    const auto* rtx = all.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
    EXPECT_NEAR(gtx->loc_delta, rtx->loc_delta, 0.02);
}

// ---------------------------------------------------------- Fig. 6 shape ---

TEST(Fig6Shape, CostCrossoversExist) {
    // AdPredictor: FPGA faster => a price ratio above t_gpu/t_fpga > 1
    // flips the decision to the GPU. Bezier: GPU faster => crossover below 1.
    auto adp = uninformed(apps::adpredictor());
    const auto* adp_fpga = adp.find(TargetKind::CpuFpga,
                                    DeviceId::Stratix10);
    const auto* adp_gpu = adp.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
    const double adp_crossover =
        adp_gpu->hotspot_seconds / adp_fpga->hotspot_seconds;
    EXPECT_GT(adp_crossover, 1.0);

    auto bez = uninformed(apps::bezier());
    const auto* bez_fpga = bez.find(TargetKind::CpuFpga,
                                    DeviceId::Stratix10);
    const auto* bez_gpu = bez.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
    const double bez_crossover =
        bez_gpu->hotspot_seconds / bez_fpga->hotspot_seconds;
    EXPECT_LT(bez_crossover, 1.0);
}

// ------------------------------------------------------- design artefacts --

TEST(Artifacts, EmittedDesignsContainDseDecisions) {
    auto all = uninformed(apps::nbody());
    const auto* rtx = all.find(TargetKind::CpuGpu, DeviceId::Rtx2080Ti);
    ASSERT_NE(rtx, nullptr);
    EXPECT_NE(rtx->source.find("const int block_size = " +
                               std::to_string(rtx->spec.block_size)),
              std::string::npos);
    // The N-Body GPU design stages the broadcast position arrays.
    EXPECT_FALSE(rtx->spec.shared_arrays.empty());
    EXPECT_NE(rtx->source.find("__shared__"), std::string::npos);

    const auto* s10 = all.find(TargetKind::CpuFpga, DeviceId::Stratix10);
    ASSERT_NE(s10, nullptr);
    EXPECT_NE(s10->source.find("#pragma unroll " +
                               std::to_string(s10->spec.unroll)),
              std::string::npos);
    EXPECT_NE(s10->source.find("malloc_host"), std::string::npos);
}

TEST(Artifacts, KMeansArrayAccumulationRemoved) {
    // The Remove Array += Dependency task does not fire on the K-Means
    // assignment hotspot (no invariant-indexed accumulation), but the OMP
    // design still parallelises it and compiles the pragma in.
    auto one = informed(apps::kmeans());
    ASSERT_EQ(one.designs.size(), 1u);
    EXPECT_NE(one.designs[0].source.find("#pragma omp parallel for"),
              std::string::npos);
}

TEST(Artifacts, LogsTellTheWholeStory) {
    auto one = informed(apps::adpredictor());
    ASSERT_FALSE(one.designs.empty());
    const auto& log = one.designs[0].log;
    auto contains = [&](const char* needle) {
        for (const auto& line : log) {
            if (line.find(needle) != std::string::npos) return true;
        }
        return false;
    };
    EXPECT_TRUE(contains("hotspot"));
    EXPECT_TRUE(contains("arithmetic intensity"));
    EXPECT_TRUE(contains("PSA (A)"));
    EXPECT_TRUE(contains("Unroll") || contains("unroll"));
}

TEST(Artifacts, EmittedOmpDesignIsExecutable) {
    // The OpenMP design is HLC plus pragmas: strip the #include lines and
    // it must re-parse, type-check and — run on the real workload — produce
    // exactly the reference results. The strongest possible statement that
    // the generated design is *valid code*, not just plausible text.
    for (const apps::Application* app : apps::all_applications()) {
        auto all = uninformed(*app);
        const auto* omp = all.find(TargetKind::CpuOpenMp,
                                   DeviceId::Epyc7543);
        ASSERT_NE(omp, nullptr) << app->name;

        std::string stripped;
        for (const auto& line : split(omp->source, '\n')) {
            if (starts_with(trim(line), "#include")) continue;
            stripped += line;
            stripped += '\n';
        }

        auto design_mod = frontend::parse_module(stripped, app->name);
        auto design_types = sema::check(*design_mod);
        auto reference_mod =
            frontend::parse_module(app->source, app->name);
        auto reference_types = sema::check(*reference_mod);

        auto run = [&](const ast::Module& mod, const sema::TypeInfo& types) {
            auto args = app->workload.make_args(1.0);
            interp::Interpreter in(mod, types);
            in.call(app->workload.entry, args);
            std::vector<std::vector<double>> out;
            for (const auto& arg : args) {
                if (const auto* buf =
                        std::get_if<interp::BufferPtr>(&arg))
                    out.push_back((*buf)->raw());
            }
            return out;
        };
        EXPECT_EQ(run(*design_mod, design_types),
                  run(*reference_mod, reference_types))
            << app->name;
    }
}

} // namespace
} // namespace psaflow

