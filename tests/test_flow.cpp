#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "analysis/characterize.hpp"
#include "flow/engine.hpp"
#include "flow/session.hpp"
#include "flow/standard_flow.hpp"
#include "flow/strategy.hpp"
#include "flow/task_registry.hpp"
#include "flow/tasks.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"
#include "ast/printer.hpp"
#include "frontend/parser.hpp"
#include "meta/instrument.hpp"
#include "meta/query.hpp"
#include "interp/value.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::flow;

interp::Arg integer(long long v) { return interp::Value::of_int(v); }

// A small compute-bound app with a parallel outer loop and an inner
// reduction over a runtime bound — the Fig. 3 GPU profile.
const char* kGpuish = R"(
void work(int n, double* a, double* out) {
    for (int i = 0; i < n; i = i + 1) {
        double acc = 0.0;
        for (int j = 0; j < n; j = j + 1) {
            acc += exp(a[j] * 0.001) * a[i];
        }
        out[i] = acc;
    }
}

void run(int n, double* a, double* out) {
    work(n, a, out);
}
)";

analysis::Workload gpuish_workload(double eval_scale = 256.0) {
    analysis::Workload w;
    w.entry = "run";
    w.eval_scale = eval_scale;
    w.make_args = [](double scale) {
        const int n = static_cast<int>(32 * scale);
        auto a = std::make_shared<interp::Buffer>(
            ast::Type::Double, static_cast<std::size_t>(n), "a");
        auto out = std::make_shared<interp::Buffer>(
            ast::Type::Double, static_cast<std::size_t>(n), "out");
        for (int i = 0; i < n; ++i) a->store(i, 0.5 + 0.001 * i);
        return std::vector<interp::Arg>{integer(n), a, out};
    };
    return w;
}

FlowContext make_ctx(const char* src, analysis::Workload w,
                     const std::string& name = "test") {
    return FlowContext(name, frontend::parse_module(src, name), std::move(w));
}

// ---------------------------------------------------------------- fig 3 ----

TEST(Fig3Decide, MemoryBoundParallelGoesCpu) {
    Fig3Inputs in;
    in.transfer_seconds = 0.01;
    in.cpu_seconds = 1.0;
    in.flops_per_byte = 2.0; // < X
    in.threshold_x = 4.0;
    in.outer_parallel = true;
    EXPECT_EQ(fig3_decide(in), Fig3Choice::CpuOpenMp);
}

TEST(Fig3Decide, MemoryBoundSequentialTerminates) {
    Fig3Inputs in;
    in.transfer_seconds = 0.01;
    in.cpu_seconds = 1.0;
    in.flops_per_byte = 1.0;
    in.outer_parallel = false;
    EXPECT_EQ(fig3_decide(in), Fig3Choice::Terminate);
}

TEST(Fig3Decide, TransferDominatedNeverOffloads) {
    Fig3Inputs in;
    in.transfer_seconds = 2.0;
    in.cpu_seconds = 1.0;
    in.flops_per_byte = 100.0; // compute bound, but transfers eat the win
    in.outer_parallel = true;
    EXPECT_EQ(fig3_decide(in), Fig3Choice::CpuOpenMp);
}

TEST(Fig3Decide, ComputeBoundParallelGoesGpu) {
    Fig3Inputs in;
    in.transfer_seconds = 0.01;
    in.cpu_seconds = 1.0;
    in.flops_per_byte = 50.0;
    in.outer_parallel = true;
    EXPECT_EQ(fig3_decide(in), Fig3Choice::CpuGpu);
}

TEST(Fig3Decide, UnrollableDependentInnersGoFpga) {
    Fig3Inputs in;
    in.transfer_seconds = 0.01;
    in.cpu_seconds = 1.0;
    in.flops_per_byte = 50.0;
    in.outer_parallel = true;
    in.inner_loop_with_deps = true;
    in.inner_fully_unrollable = true;
    EXPECT_EQ(fig3_decide(in), Fig3Choice::CpuFpga);
}

TEST(Fig3Decide, NonUnrollableDependentInnersStayGpu) {
    Fig3Inputs in;
    in.transfer_seconds = 0.01;
    in.cpu_seconds = 1.0;
    in.flops_per_byte = 50.0;
    in.outer_parallel = true;
    in.inner_loop_with_deps = true;
    in.inner_fully_unrollable = false; // runtime bounds (N-Body)
    EXPECT_EQ(fig3_decide(in), Fig3Choice::CpuGpu);
}

TEST(Fig3Decide, SequentialOuterGoesFpga) {
    Fig3Inputs in;
    in.transfer_seconds = 0.01;
    in.cpu_seconds = 1.0;
    in.flops_per_byte = 50.0;
    in.outer_parallel = false;
    EXPECT_EQ(fig3_decide(in), Fig3Choice::CpuFpga);
}

// ---------------------------------------------------------------- context --

TEST(Context, ForkIsolatesModuleState) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    for (const auto& task :
         {identify_hotspot_loops(), hotspot_loop_extraction()}) {
        task->run(ctx);
    }
    FlowContext forked = ctx.fork();

    // Mutate the fork; the original stays untouched.
    meta::add_pragma(forked.outer_loop(), "unroll 4");
    EXPECT_EQ(ast::to_source(ctx.module()).find("unroll 4"),
              std::string::npos);
    EXPECT_NE(ast::to_source(forked.module()).find("unroll 4"),
              std::string::npos);
    // The fork carries the spec and reference time.
    EXPECT_EQ(forked.spec.kernel_name, ctx.spec.kernel_name);
    EXPECT_DOUBLE_EQ(forked.reference_seconds(), ctx.reference_seconds());
}

void expect_same_law(const analysis::ScaledQuantity& a,
                     const analysis::ScaledQuantity& b) {
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.exponent, b.exponent);
}

TEST(Context, ForkKeepsCharacterizationWithLoopIdsOfTheClone) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    identify_hotspot_loops()->run(ctx);
    hotspot_loop_extraction()->run(ctx);
    const analysis::KernelCharacterization& before = ctx.characterization();
    ASSERT_EQ(before.loops.size(), 2u);

    FlowContext forked = ctx.fork();
    const analysis::KernelCharacterization kept = forked.characterization();
    const analysis::KernelCharacterization fresh =
        analysis::characterize_kernel(forked.module(), forked.types(),
                                      forked.spec.kernel_name,
                                      forked.workload());

    const std::vector<ast::For*> loops = meta::for_loops(forked.kernel());
    ASSERT_EQ(kept.loops.size(), fresh.loops.size());
    for (std::size_t i = 0; i < kept.loops.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(kept.loops[i].loop_id, loops[i]->id);
        EXPECT_NE(kept.loops[i].loop_id, before.loops[i].loop_id);
        EXPECT_EQ(kept.loops[i].loop_id, fresh.loops[i].loop_id);
        EXPECT_EQ(kept.loops[i].entries, fresh.loops[i].entries);
        expect_same_law(kept.loops[i].trips_per_entry,
                        fresh.loops[i].trips_per_entry);
        expect_same_law(kept.loops[i].trips_total,
                        fresh.loops[i].trips_total);
        expect_same_law(kept.loops[i].flops, fresh.loops[i].flops);
    }
    EXPECT_EQ(kept.kernel, fresh.kernel);
    expect_same_law(kept.flops, fresh.flops);
    expect_same_law(kept.call_flops, fresh.call_flops);
    expect_same_law(kept.mem_bytes, fresh.mem_bytes);
    expect_same_law(kept.footprint, fresh.footprint);
    expect_same_law(kept.bytes_in, fresh.bytes_in);
    expect_same_law(kept.bytes_out, fresh.bytes_out);
    expect_same_law(kept.cpu_cost, fresh.cpu_cost);
    EXPECT_EQ(kept.args_alias, fresh.args_alias);
    EXPECT_EQ(kept.kernel_calls, fresh.kernel_calls);
    ASSERT_EQ(kept.buffers.size(), fresh.buffers.size());
    for (std::size_t i = 0; i < kept.buffers.size(); ++i) {
        SCOPED_TRACE(kept.buffers[i].name);
        EXPECT_EQ(kept.buffers[i].name, fresh.buffers[i].name);
        EXPECT_EQ(kept.buffers[i].elem_bytes, fresh.buffers[i].elem_bytes);
        expect_same_law(kept.buffers[i].bytes_in, fresh.buffers[i].bytes_in);
        expect_same_law(kept.buffers[i].bytes_out,
                        fresh.buffers[i].bytes_out);
        expect_same_law(kept.buffers[i].accessed, fresh.buffers[i].accessed);
    }
}

TEST(Context, KernelAccessorsRequireExtraction) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    EXPECT_THROW((void)ctx.kernel(), Error);
    identify_hotspot_loops()->run(ctx);
    hotspot_loop_extraction()->run(ctx);
    EXPECT_EQ(ctx.kernel().name, "test_kernel");
    EXPECT_NO_THROW((void)ctx.outer_loop());
}

// ------------------------------------------------------------------ tasks --

TEST(Tasks, HotspotExtractionPicksTheHotLoop) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    identify_hotspot_loops()->run(ctx);
    EXPECT_EQ(ctx.hotspot_function, "work");
    EXPECT_GT(ctx.hotspot_fraction, 0.5);
    hotspot_loop_extraction()->run(ctx);
    // The extracted kernel contains the O(n^2) nest.
    EXPECT_EQ(meta::for_loops(ctx.kernel()).size(), 2u);
}

TEST(Tasks, PointerAnalysisRejectsAliasedKernels) {
    const char* aliased = R"(
void work(int n, double* a, double* b) {
    for (int i = 0; i < n; i = i + 1) {
        a[i] = b[i] * 2.0;
    }
}

void run(int n, double* a) {
    work(n, a, a);
}
)";
    analysis::Workload w;
    w.entry = "run";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(16 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(ast::Type::Double, 64, "a")};
    };
    auto ctx = make_ctx(aliased, w);
    identify_hotspot_loops()->run(ctx);
    hotspot_loop_extraction()->run(ctx);
    EXPECT_THROW(pointer_analysis()->run(ctx), Error);
}

TEST(Tasks, SpTasksRespectPrecisionSensitivity) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    identify_hotspot_loops()->run(ctx);
    hotspot_loop_extraction()->run(ctx);
    ctx.allow_single_precision = false;
    employ_sp_math_fns()->run(ctx);
    employ_sp_numeric_literals()->run(ctx);
    EXPECT_FALSE(ctx.spec.single_precision);
    EXPECT_EQ(ast::to_source(ctx.kernel()).find("expf"), std::string::npos);

    ctx.allow_single_precision = true;
    employ_sp_math_fns()->run(ctx);
    EXPECT_TRUE(ctx.spec.single_precision);
    EXPECT_NE(ast::to_source(ctx.kernel()).find("expf"), std::string::npos);
}

TEST(Tasks, UnrollFixedLoopsFlattensSmallFixedInners) {
    const char* fixed_inner = R"(
void work(int n, double* a, double* out) {
    for (int i = 0; i < n; i = i + 1) {
        double s = 0.0;
        for (int j = 0; j < 4; j = j + 1) {
            s += a[i * 4 + j];
        }
        out[i] = s;
    }
}

void run(int n, double* a, double* out) {
    work(n, a, out);
}
)";
    analysis::Workload w;
    w.entry = "run";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(16 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(ast::Type::Double, 256, "a"),
            std::make_shared<interp::Buffer>(ast::Type::Double, 64, "out")};
    };
    auto ctx = make_ctx(fixed_inner, w);
    identify_hotspot_loops()->run(ctx);
    hotspot_loop_extraction()->run(ctx);
    unroll_fixed_loops()->run(ctx);
    // The fixed j-loop is gone; only the outer loop remains.
    EXPECT_EQ(meta::for_loops(ctx.kernel()).size(), 1u);
    EXPECT_NE(ast::to_source(ctx.kernel()).find("a[i * 4 + 3]"),
              std::string::npos);
}

TEST(Tasks, OmpDseInsertsFinalPragma) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    identify_hotspot_loops()->run(ctx);
    hotspot_loop_extraction()->run(ctx);
    multi_thread_parallel_loops()->run(ctx);
    omp_num_threads_dse()->run(ctx);
    EXPECT_EQ(ctx.spec.omp_threads, 32);
    const std::string src = ast::to_source(ctx.kernel());
    EXPECT_NE(src.find("omp parallel for num_threads(32)"),
              std::string::npos);
    // The DSE replaced the provisional pragma rather than stacking one.
    EXPECT_EQ(ctx.outer_loop().pragmas.size(), 1u);
}

TEST(Tasks, RepositoryMatchesFig4Inventory) {
    const auto tasks = repository();
    EXPECT_EQ(tasks.size(), 25u); // Fig. 4's task list
    int analysis_count = 0;
    int dynamic_count = 0;
    for (const auto& t : tasks) {
        if (t->cls() == TaskClass::Analysis) ++analysis_count;
        if (t->dynamic()) ++dynamic_count;
    }
    EXPECT_EQ(analysis_count, 6);
    EXPECT_GE(dynamic_count, 8);
}

// ------------------------------------------------------------------ engine -

TEST(Engine, UninformedGeneratesFiveDesigns) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    auto result =
        FlowSession().run(standard_flow(Mode::Uninformed), std::move(ctx));
    EXPECT_EQ(result.designs.size(), 5u);
    EXPECT_NE(result.find(codegen::TargetKind::CpuOpenMp,
                          platform::DeviceId::Epyc7543),
              nullptr);
    EXPECT_NE(result.find(codegen::TargetKind::CpuGpu,
                          platform::DeviceId::Gtx1080Ti),
              nullptr);
    EXPECT_NE(result.find(codegen::TargetKind::CpuGpu,
                          platform::DeviceId::Rtx2080Ti),
              nullptr);
    EXPECT_NE(result.find(codegen::TargetKind::CpuFpga,
                          platform::DeviceId::Arria10),
              nullptr);
    EXPECT_NE(result.find(codegen::TargetKind::CpuFpga,
                          platform::DeviceId::Stratix10),
              nullptr);
}

TEST(Engine, InformedGeneratesOneTargetFamily) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    auto result =
        FlowSession().run(standard_flow(Mode::Informed), std::move(ctx));
    // GPU branch selected (compute-bound, parallel outer, runtime-bound
    // inner): two designs, one per GPU device.
    ASSERT_EQ(result.designs.size(), 2u);
    for (const auto& d : result.designs) {
        EXPECT_EQ(d.spec.target, codegen::TargetKind::CpuGpu);
        EXPECT_GT(d.spec.block_size, 0);
        EXPECT_GT(d.speedup, 1.0);
    }
}

TEST(Engine, DesignsCarrySourcesAndLocDeltas) {
    auto ctx = make_ctx(kGpuish, gpuish_workload());
    auto result =
        FlowSession().run(standard_flow(Mode::Uninformed), std::move(ctx));
    for (const auto& d : result.designs) {
        EXPECT_FALSE(d.source.empty());
        EXPECT_GT(d.loc_delta, 0.0);
    }
    // OMP adds less code than any accelerator design.
    const auto* omp = result.find(codegen::TargetKind::CpuOpenMp,
                                  platform::DeviceId::Epyc7543);
    for (const auto& d : result.designs) {
        if (&d == omp) continue;
        EXPECT_GT(d.loc_delta, omp->loc_delta);
    }
}

TEST(Engine, BudgetFeedbackRevisesSelection) {
    // Unconstrained, the informed flow picks the GPU. A budget below the
    // GPU run cost must push the selection to a cheaper target.
    auto baseline = FlowSession().run(standard_flow(Mode::Informed),
                                      make_ctx(kGpuish, gpuish_workload()));
    ASSERT_FALSE(baseline.designs.empty());
    ASSERT_EQ(baseline.designs[0].spec.target, codegen::TargetKind::CpuGpu);

    EngineOptions options;
    const double gpu_cost = options.cost_model.run_cost(
        codegen::TargetKind::CpuGpu, baseline.best()->hotspot_seconds);
    options.budget.max_run_cost = gpu_cost * 0.01;

    auto constrained = FlowSession().run(standard_flow(Mode::Informed),
                                         make_ctx(kGpuish, gpuish_workload()),
                                         options);
    ASSERT_FALSE(constrained.designs.empty());
    bool all_gpu = true;
    for (const auto& d : constrained.designs) {
        if (d.spec.target != codegen::TargetKind::CpuGpu) all_gpu = false;
    }
    EXPECT_FALSE(all_gpu); // feedback moved away from the GPU
}

TEST(Engine, BestSkipsUnsynthesizableDesigns) {
    FlowResult result;
    DesignArtifact bad;
    bad.synthesizable = false;
    bad.speedup = 0.0;
    DesignArtifact good;
    good.synthesizable = true;
    good.speedup = 5.0;
    result.designs.push_back(std::move(bad));
    result.designs.push_back(std::move(good));
    ASSERT_NE(result.best(), nullptr);
    EXPECT_DOUBLE_EQ(result.best()->speedup, 5.0);
}

TEST(Engine, EnergyModelRanksDevices) {
    CostModel model;
    const double second = 1.0;
    // Same runtime: the Arria10 is the most frugal device, the CPU socket
    // the hungriest.
    const double cpu = energy_joules(model, platform::DeviceId::Epyc7543,
                                     second);
    const double gpu = energy_joules(model, platform::DeviceId::Rtx2080Ti,
                                     second);
    const double a10 = energy_joules(model, platform::DeviceId::Arria10,
                                     second);
    const double s10 = energy_joules(model, platform::DeviceId::Stratix10,
                                     second);
    EXPECT_LT(a10, s10);
    EXPECT_LT(s10, cpu);
    EXPECT_LT(cpu, gpu);
    // Energy scales linearly with time.
    EXPECT_DOUBLE_EQ(
        energy_joules(model, platform::DeviceId::Arria10, 2.0), 2.0 * a10);
}

TEST(Strategy, CostFeedbackFallbackOrder) {
    // With the GPU excluded, a GPU-profiled kernel must fall back to the
    // FPGA path (the documented preference order), then to the CPU.
    auto run_excluding = [&](std::set<std::string> excluded) {
        auto ctx = make_ctx(kGpuish, gpuish_workload());
        DesignFlow flow = standard_flow(Mode::Informed);
        for (const TaskPtr& task : flow.prologue) task->run(ctx);
        auto strategy = informed_strategy(std::move(excluded));
        return strategy->select(ctx, *flow.branch);
    };
    const auto gpu_choice = run_excluding({});
    ASSERT_EQ(gpu_choice.size(), 1u);
    EXPECT_EQ(standard_flow(Mode::Informed).branch->paths[gpu_choice[0]].name,
              "gpu");

    const auto no_gpu = run_excluding({"gpu"});
    ASSERT_EQ(no_gpu.size(), 1u);
    EXPECT_EQ(standard_flow(Mode::Informed).branch->paths[no_gpu[0]].name,
              "fpga");

    const auto cpu_only = run_excluding({"gpu", "fpga"});
    ASSERT_EQ(cpu_only.size(), 1u);
    EXPECT_EQ(standard_flow(Mode::Informed).branch->paths[cpu_only[0]].name,
              "cpu");

    const auto nothing = run_excluding({"gpu", "fpga", "cpu"});
    EXPECT_TRUE(nothing.empty()); // terminate unmodified
}

TEST(Engine, CostModelPrices) {
    CostModel model;
    EXPECT_GT(model.run_cost(codegen::TargetKind::CpuGpu, 3600.0), 0.0);
    EXPECT_DOUBLE_EQ(model.run_cost(codegen::TargetKind::CpuGpu, 3600.0),
                     model.gpu_per_hour);
    EXPECT_LT(model.run_cost(codegen::TargetKind::CpuFpga, 100.0),
              model.run_cost(codegen::TargetKind::CpuGpu, 100.0));
}

// --------------------------------------------------------- task registry ----

TEST(TaskIds, StableSlugsFromDisplayNames) {
    EXPECT_EQ(identify_hotspot_loops()->id(), "identify-hotspot-loops");
    EXPECT_EQ(remove_array_plus_eq()->id(), "remove-array-dependency");
    // Device names fold into the slug, so each DSE variant is distinct.
    EXPECT_EQ(blocksize_dse(platform::DeviceId::Gtx1080Ti)->id(),
              "gtx-1080-ti-blocksize-dse");
    EXPECT_EQ(blocksize_dse(platform::DeviceId::Rtx2080Ti)->id(),
              "rtx-2080-ti-blocksize-dse");
    EXPECT_EQ(unroll_until_overmap_dse(platform::DeviceId::Arria10)->id(),
              "arria10-unroll-until-overmap-dse");
}

TEST(TaskRegistry, BuiltinsRegisteredAndSorted) {
    const auto ids = TaskRegistry::global().ids();
    EXPECT_EQ(ids.size(), 23u); // the full Fig. 4 repository
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    for (const auto& id : ids) {
        EXPECT_TRUE(TaskRegistry::global().contains(id)) << id;
        const auto task = TaskRegistry::global().make(id);
        ASSERT_NE(task, nullptr);
        EXPECT_EQ(task->id(), id); // make() and id() agree
    }
}

TEST(TaskRegistry, UnknownIdThrows) {
    EXPECT_FALSE(TaskRegistry::global().contains("no-such-task"));
    EXPECT_THROW((void)TaskRegistry::global().make("no-such-task"), Error);
}

TEST(TaskRegistry, StandardFlowAssembledFromRegisteredTasks) {
    // Every task the standard flows reference must resolve through the
    // registry: a task rename that forgets standard_flow breaks loudly here.
    for (const Mode mode : {Mode::Informed, Mode::Uninformed}) {
        const DesignFlow flow = standard_flow(mode);
        for (const TaskPtr& task : flow.prologue)
            EXPECT_TRUE(TaskRegistry::global().contains(task->id()))
                << task->id();
        for (const FlowPath& path : flow.branch->paths) {
            for (const TaskPtr& task : path.tasks)
                EXPECT_TRUE(TaskRegistry::global().contains(task->id()))
                    << task->id();
        }
    }
}

// ------------------------------------------------------------ FlowSession ----

TEST(Session, FreshSessionsProduceIdenticalResults) {
    // The session facade holds no hidden per-instance state: two
    // default-configured sessions yield byte-identical results.
    const DesignFlow flow = standard_flow(Mode::Uninformed);
    auto first = FlowSession().run(flow, make_ctx(kGpuish, gpuish_workload()));

    FlowSession session;
    auto second = session.run(flow, make_ctx(kGpuish, gpuish_workload()));

    ASSERT_EQ(second.designs.size(), first.designs.size());
    for (std::size_t i = 0; i < second.designs.size(); ++i) {
        EXPECT_EQ(second.designs[i].source, first.designs[i].source);
        EXPECT_EQ(second.designs[i].log, first.designs[i].log);
        EXPECT_EQ(second.designs[i].speedup, first.designs[i].speedup);
    }
}

TEST(Session, JobsDefaultFromSessionOptions) {
    SessionOptions options;
    options.jobs = 2;
    FlowSession session(options);
    const DesignFlow flow = standard_flow(Mode::Uninformed);
    auto parallel = session.run(flow, make_ctx(kGpuish, gpuish_workload()));

    auto sequential =
        FlowSession().run(flow, make_ctx(kGpuish, gpuish_workload()));
    ASSERT_EQ(parallel.designs.size(), sequential.designs.size());
    for (std::size_t i = 0; i < parallel.designs.size(); ++i) {
        EXPECT_EQ(parallel.designs[i].source, sequential.designs[i].source);
        EXPECT_EQ(parallel.designs[i].log, sequential.designs[i].log);
    }
}

TEST(Session, JobsBoundTheBranchPathThreads) {
    // jobs = 2 runs branch paths on the session's own two pool threads
    // plus the calling thread (which helps while it waits), never on a
    // pool sized by the hardware.
    SessionOptions options;
    options.jobs = 2;
    FlowSession session(options);
    trace::Registry registry;
    registry.set_enabled(true);
    {
        trace::ScopedRegistry scope(registry);
        for (int i = 0; i < 3; ++i)
            (void)session.run(standard_flow(Mode::Uninformed),
                              make_ctx(kGpuish, gpuish_workload()));
    }
    std::set<std::uint64_t> threads;
    for (const trace::Span& span : registry.spans())
        threads.insert(span.thread);
    EXPECT_LE(threads.size(), 3u);
}

TEST(Session, CacheDirOpensTheSessionsOwnStore) {
    // Each session owns the store its cache_dir names; a session without
    // one has none, whatever other sessions in the process opened.
    const auto root =
        std::filesystem::path(::testing::TempDir()) / "psaflow-session-store";
    std::filesystem::remove_all(root);
    SessionOptions options;
    options.cache_dir = root.string();
    options.cache_max_bytes = 1 << 20;
    FlowSession session(options);
    ASSERT_NE(session.store(), nullptr);
    EXPECT_EQ(session.store()->root(), root);
    EXPECT_EQ(session.store()->max_bytes(), 1u << 20);
    session.store()->put(31, "via-session");
    EXPECT_EQ(session.store()->get(31).value_or(""), "via-session");
    EXPECT_EQ(FlowSession().store(), nullptr);
    std::filesystem::remove_all(root);
}

TEST(Session, FlagsWinOverTheEnvironment) {
    const SessionOptions defaults = session_options({}, {});
    EXPECT_EQ(defaults.jobs, 0);
    EXPECT_EQ(defaults.cache_dir, "");
    EXPECT_EQ(defaults.cache_max_bytes, 0u);
    EXPECT_TRUE(defaults.profile_cache);

    cli::Environment env;
    env.jobs = 3;
    env.cache_dir = "env-dir";
    env.cache_max_mb = 7;
    env.profile_cache = false;
    const SessionOptions from_env = session_options({}, env);
    EXPECT_EQ(from_env.jobs, 3);
    EXPECT_EQ(from_env.cache_dir, "env-dir");
    EXPECT_EQ(from_env.cache_max_bytes, 7u << 20);
    EXPECT_FALSE(from_env.profile_cache);

    cli::FlowFlags flags;
    flags.jobs = 2;
    flags.cache_dir = "flag-dir";
    flags.cache_max_mb = 5;
    const SessionOptions from_flags = session_options(flags, env);
    EXPECT_EQ(from_flags.jobs, 2);
    EXPECT_EQ(from_flags.cache_dir, "flag-dir");
    EXPECT_EQ(from_flags.cache_max_bytes, 5u << 20);
}

} // namespace
} // namespace psaflow
