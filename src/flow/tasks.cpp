#include "flow/tasks.hpp"

#include <algorithm>
#include <cctype>

#include "analysis/hotspot.hpp"
#include "analysis/intensity.hpp"
#include "ast/walk.hpp"
#include "dse/dse.hpp"
#include "meta/query.hpp"
#include "perf/estimator.hpp"
#include "support/error.hpp"
#include "support/string_util.hpp"
#include "transform/accumulation.hpp"
#include "transform/extract.hpp"
#include "transform/parallel.hpp"
#include "transform/single_precision.hpp"
#include "transform/unroll.hpp"

namespace psaflow::flow {

using namespace psaflow::ast;

const char* to_string(TaskClass cls) {
    switch (cls) {
        case TaskClass::Analysis: return "A";
        case TaskClass::Transform: return "T";
        case TaskClass::CodeGen: return "CG";
        case TaskClass::Optimisation: return "O";
    }
    return "?";
}

std::string Task::id() const {
    const std::string display = name();
    std::string out;
    out.reserve(display.size());
    bool pending_dash = false;
    for (char c : display) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            if (pending_dash && !out.empty()) out.push_back('-');
            pending_dash = false;
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        } else {
            pending_dash = true;
        }
    }
    return out;
}

namespace {

/// Boilerplate-reducing base.
template <TaskClass Cls, bool Dynamic = false>
class TaskBase : public Task {
public:
    [[nodiscard]] TaskClass cls() const final { return Cls; }
    [[nodiscard]] bool dynamic() const final { return Dynamic; }
};

// ===================================================== target-independent ==

class IdentifyHotspotLoops final
    : public TaskBase<TaskClass::Analysis, true> {
public:
    std::string name() const override { return "Identify Hotspot Loops"; }

    void run(FlowContext& ctx) override {
        auto report = analysis::detect_hotspots(
            ctx.module(), ctx.types(), ctx.workload(), ctx.profile_cache);
        const auto* top = report.top();
        ensure(top != nullptr,
               "Identify Hotspot Loops: no loop executed under the workload");
        ctx.hotspot_loop_id = top->loop->id;
        ctx.hotspot_function = top->function->name;
        ctx.hotspot_fraction = top->fraction;
        ctx.hotspot_region = top->region;
        ctx.note("hotspot: loop in '" + top->function->name + "' covering " +
                 format_compact(100.0 * top->fraction, 3) +
                 "% of execution cost");
    }
};

class HotspotLoopExtraction final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Hotspot Loop Extraction"; }

    void run(FlowContext& ctx) override {
        ensure(ctx.hotspot_loop_id.has_value(),
               "Hotspot Loop Extraction: run hotspot detection first");
        For* loop = nullptr;
        walk(static_cast<Node&>(ctx.module()), [&](Node& n) {
            if (n.id == *ctx.hotspot_loop_id) loop = dyn_cast<For>(&n);
            return loop == nullptr;
        });
        ensure(loop != nullptr,
               "Hotspot Loop Extraction: hotspot loop no longer present");

        const std::string kernel_name = ctx.app_name() + "_kernel";
        transform::extract_hotspot(ctx.module(), ctx.types(), *loop,
                                   kernel_name);
        ctx.spec.kernel_name = kernel_name;
        ctx.kernel_extracted();
        // Capture the single-thread CPU reference time from the pristine
        // kernel, before any target-specific transform perturbs the shape.
        const double ref = ctx.reference_seconds();
        ctx.note("extracted kernel '" + kernel_name + "'; reference 1-thread "
                 "CPU time " + format_compact(ref, 4) + " s at eval scale");
    }
};

class PointerAnalysis final : public TaskBase<TaskClass::Analysis, true> {
public:
    std::string name() const override { return "Pointer Analysis"; }

    void run(FlowContext& ctx) override {
        const bool alias = ctx.characterization().args_alias;
        ensure(!alias, "Pointer Analysis: kernel pointer arguments alias; "
                       "offloading would be unsound");
        ctx.note("pointer analysis: kernel arguments do not alias");
    }
};

class ArithmeticIntensityAnalysis final
    : public TaskBase<TaskClass::Analysis> {
public:
    std::string name() const override {
        return "Arithmetic Intensity Analysis";
    }

    void run(FlowContext& ctx) override {
        const double ai =
            ctx.characterization().flops_per_byte(ctx.relative_scale());
        const auto si = analysis::static_intensity(ctx.outer_loop(),
                                                   ctx.types());
        ctx.note("arithmetic intensity: " + format_compact(ai, 4) +
                 " FLOPs/B dynamic (static per-iteration: " +
                 format_compact(si.flops, 4) + " flops / " +
                 format_compact(si.bytes, 4) + " bytes)");
    }
};

class DataInOutAnalysis final : public TaskBase<TaskClass::Analysis, true> {
public:
    std::string name() const override { return "Data In/Out Analysis"; }

    void run(FlowContext& ctx) override {
        const auto& ch = ctx.characterization();
        const double s = ctx.relative_scale();
        ctx.note("data in/out: " + format_compact(ch.bytes_in.at(s), 4) +
                 " B in, " + format_compact(ch.bytes_out.at(s), 4) +
                 " B out per run at eval scale");
    }
};

class LoopDependenceAnalysis final : public TaskBase<TaskClass::Analysis> {
public:
    std::string name() const override { return "Loop Dependence Analysis"; }

    void run(FlowContext& ctx) override {
        const auto& info = ctx.outer_dependence();
        std::string line = "outer loop: ";
        line += info.parallel ? "parallel" : "not parallel";
        if (info.has_reductions()) line += " (with reductions)";
        if (!info.array_accumulations.empty())
            line += "; array accumulations: " +
                    join(info.array_accumulations, ",");
        ctx.note("loop dependence: " + line);
    }
};

class LoopTripCountAnalysis final
    : public TaskBase<TaskClass::Analysis, true> {
public:
    std::string name() const override { return "Loop Trip-Count Analysis"; }

    void run(FlowContext& ctx) override {
        const auto& ch = ctx.characterization();
        std::string line;
        for (const auto& lp : ch.loops) {
            if (!line.empty()) line += ", ";
            line += format_compact(lp.trips_per_entry.base, 4) + "*s^" +
                    format_compact(lp.trips_per_entry.exponent, 3);
        }
        ctx.note("trip counts (outer-first): " + line);
    }
};

class RemoveArrayPlusEq final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Remove Array += Dependency"; }

    void run(FlowContext& ctx) override {
        const int n =
            transform::remove_array_accumulation(ctx.module(),
                                                 ctx.outer_loop());
        if (n > 0) {
            ctx.invalidate();
            ctx.note("removed " + std::to_string(n) +
                     " array accumulation dependencies");
        }
    }
};

// ================================================================ FPGA =====

class GenerateOneApiDesign final : public TaskBase<TaskClass::CodeGen> {
public:
    std::string name() const override { return "Generate oneAPI Design"; }

    void run(FlowContext& ctx) override {
        ctx.spec.target = codegen::TargetKind::CpuFpga;
        ctx.note("generating oneAPI CPU+FPGA design");
    }
};

class UnrollFixedLoops final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Unroll Fixed Loops"; }

    void run(FlowContext& ctx) override {
        // Fully unroll fixed-bound inner loops, innermost-first, so FPGA
        // pipelines issue one outer iteration per cycle.
        int total = 0;
        for (int guard = 0; guard < 64; ++guard) {
            For* victim = nullptr;
            For& outer = ctx.outer_loop();
            for (For* inner : meta::inner_for_loops(outer)) {
                if (!meta::has_fixed_bounds(*inner)) continue;
                if (meta::constant_trip_count(*inner) > 64) continue;
                // Innermost-first: skip loops that still contain fixed loops.
                bool contains_fixed = false;
                for (For* nested : meta::inner_for_loops(*inner)) {
                    if (meta::has_fixed_bounds(*nested) &&
                        meta::constant_trip_count(*nested) <= 64)
                        contains_fixed = true;
                }
                if (!contains_fixed) {
                    victim = inner;
                    break;
                }
            }
            if (victim == nullptr) break;
            transform::fully_unroll_loop(ctx.module(), *victim);
            ctx.invalidate();
            ++total;
        }
        if (total > 0)
            ctx.note("fully unrolled " + std::to_string(total) +
                     " fixed-bound inner loops");
    }
};

class EmploySpMathFns final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Employ SP Math Fns"; }

    void run(FlowContext& ctx) override {
        if (!ctx.allow_single_precision) {
            ctx.note("SP math skipped: application is precision-sensitive");
            return;
        }
        const int n = transform::employ_sp_math(ctx.kernel());
        if (n > 0) {
            ctx.spec.single_precision = true;
            ctx.invalidate();
            ctx.note("rewrote " + std::to_string(n) +
                     " math calls to single precision");
        }
    }
};

class EmploySpNumericLiterals final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Employ SP Numeric Literals"; }

    void run(FlowContext& ctx) override {
        if (!ctx.allow_single_precision) {
            ctx.note("SP literals skipped: application is precision-"
                     "sensitive");
            return;
        }
        const int lits = transform::employ_sp_literals(ctx.kernel());
        const int locals = transform::demote_double_locals(ctx.kernel());
        if (lits + locals > 0) {
            ctx.spec.single_precision = true;
            ctx.invalidate();
            ctx.note("converted " + std::to_string(lits) + " literals and " +
                     std::to_string(locals) + " locals to single precision");
        }
    }
};

class ZeroCopyDataTransfer final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Zero-Copy Data Transfer"; }

    void run(FlowContext& ctx) override {
        ctx.spec.zero_copy = true;
        ctx.note("enabled zero-copy host memory (USM)");
    }
};

class UnrollUntilOvermapDse final
    : public TaskBase<TaskClass::Optimisation, true> {
public:
    explicit UnrollUntilOvermapDse(platform::DeviceId device)
        : device_(device) {}

    std::string name() const override {
        return std::string(platform::to_string(device_)) +
               " Unroll Until Overmap DSE";
    }

    void run(FlowContext& ctx) override {
        ctx.spec.device = device_;
        platform::FpgaModel model(platform::fpga_spec(device_));
        const auto shape = ctx.shape();
        const int max_unroll = static_cast<int>(std::min(
            16384.0, std::max(1.0, shape.parallel_iters)));
        auto result =
            dse::unroll_until_overmap(model, ctx.kernel(), ctx.types(),
                                      max_unroll, ctx.spec.single_precision);
        ctx.spec.unroll = std::max(1, result.unroll);
        ctx.spec.synthesizable = result.synthesizable();
        if (result.synthesizable()) {
            ctx.fpga_report = result.report;
            ctx.note(std::string(platform::to_string(device_)) +
                     ": unroll " + std::to_string(result.unroll) + " at " +
                     format_compact(100.0 * result.report.utilisation(), 3) +
                     "% utilisation");
        } else {
            // Even unroll=1 overmaps: keep the (overmapped) report so the
            // design can be emitted with its warning — the paper's Rush
            // Larsen outcome.
            ctx.fpga_report = model.report(ctx.kernel(), ctx.types(), 1,
                                           ctx.spec.single_precision);
            ctx.note(std::string(platform::to_string(device_)) +
                     ": design overmaps at unroll 1 — not synthesizable");
        }
    }

private:
    platform::DeviceId device_;
};

// ================================================================= GPU =====

class GenerateHipDesign final : public TaskBase<TaskClass::CodeGen> {
public:
    std::string name() const override { return "Generate HIP Design"; }

    void run(FlowContext& ctx) override {
        ctx.spec.target = codegen::TargetKind::CpuGpu;
        // Directional staging from the data in/out analysis: only read
        // buffers travel to the device, only written buffers travel back.
        ctx.spec.copy_in.clear();
        ctx.spec.copy_out.clear();
        for (const auto& buf : ctx.characterization().buffers) {
            if (buf.bytes_in.base > 0.0) ctx.spec.copy_in.push_back(buf.name);
            if (buf.bytes_out.base > 0.0)
                ctx.spec.copy_out.push_back(buf.name);
        }
        ctx.note("generating HIP CPU+GPU design (copy in: " +
                 join(ctx.spec.copy_in, ",") + "; copy out: " +
                 join(ctx.spec.copy_out, ",") + ")");
    }
};

class EmployHipPinnedMemory final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Employ HIP Pinned Memory"; }

    void run(FlowContext& ctx) override {
        ctx.spec.pinned_host_memory = true;
        ctx.note("host buffers pinned (hipHostMalloc)");
    }
};

class IntroduceSharedMemBuf final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Introduce Shared Mem Buf"; }

    void run(FlowContext& ctx) override {
        auto candidates = transform::shared_mem_candidates(ctx.outer_loop());
        if (candidates.empty()) {
            ctx.note("no shared-memory staging candidates");
            return;
        }
        transform::annotate_shared_mem(ctx.outer_loop(), candidates);
        ctx.spec.shared_arrays = candidates;
        ctx.note("staging in shared memory: " + join(candidates, ", "));
    }
};

class EmploySpecialisedMathFns final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Employ Specialised Math Fns"; }

    void run(FlowContext& ctx) override {
        if (!ctx.spec.single_precision) {
            ctx.note("specialised math skipped: kernel is double precision");
            return;
        }
        ctx.spec.specialised_math = true;
        ctx.note("using device fast-math intrinsics (__expf, __logf, ...)");
    }
};

class BlocksizeDse final : public TaskBase<TaskClass::Optimisation, true> {
public:
    explicit BlocksizeDse(platform::DeviceId device) : device_(device) {}

    std::string name() const override {
        return std::string(platform::to_string(device_)) + " Blocksize DSE";
    }

    void run(FlowContext& ctx) override {
        ctx.spec.device = device_;
        platform::GpuModel model(platform::gpu_spec(device_));
        const auto shape = ctx.shape();

        // Shared tiles grow with the block: one element per thread per
        // staged array.
        double smem_per_thread = 0.0;
        for (const auto& arr : ctx.spec.shared_arrays) {
            smem_per_thread +=
                size_of(ctx.types().var_type(ctx.kernel(), arr).elem);
        }

        auto result = dse::blocksize_dse(model, shape, smem_per_thread,
                                         ctx.spec.pinned_host_memory);
        ctx.spec.block_size = result.block_size;
        ctx.note(std::string(platform::to_string(device_)) + ": blocksize " +
                 std::to_string(result.block_size) + " (occupancy " +
                 format_compact(100.0 * result.occupancy, 3) + "%)");
    }

private:
    platform::DeviceId device_;
};

// ================================================================= CPU =====

class MultiThreadParallelLoops final : public TaskBase<TaskClass::Transform> {
public:
    std::string name() const override { return "Multi-Thread Parallel Loops"; }

    void run(FlowContext& ctx) override {
        ctx.spec.target = codegen::TargetKind::CpuOpenMp;
        ctx.spec.device = platform::DeviceId::Epyc7543;
        const auto& dep = ctx.outer_dependence();
        ensure(dep.parallel, "Multi-Thread Parallel Loops: outer loop is not "
                             "parallel");
        transform::insert_omp_parallel_for(
            ctx.outer_loop(), platform::epyc7543().cores, dep.reductions);
        ctx.note("inserted OpenMP parallel-for work sharing");
    }
};

class OmpNumThreadsDse final : public TaskBase<TaskClass::Optimisation, true> {
public:
    std::string name() const override { return "OMP Num. Threads DSE"; }

    void run(FlowContext& ctx) override {
        platform::CpuModel model(platform::epyc7543());
        auto result = dse::omp_threads_dse(model, ctx.shape());
        ctx.spec.omp_threads = result.threads;
        // Refresh the pragma with the DSE-chosen thread count.
        transform::insert_omp_parallel_for(ctx.outer_loop(), result.threads,
                                           ctx.outer_dependence().reductions);
        ctx.note("OMP threads: " + std::to_string(result.threads));
    }
};

} // namespace

// ------------------------------------------------------------- factories ---

TaskPtr identify_hotspot_loops() {
    return std::make_shared<IdentifyHotspotLoops>();
}
TaskPtr hotspot_loop_extraction() {
    return std::make_shared<HotspotLoopExtraction>();
}
TaskPtr pointer_analysis() { return std::make_shared<PointerAnalysis>(); }
TaskPtr arithmetic_intensity_analysis() {
    return std::make_shared<ArithmeticIntensityAnalysis>();
}
TaskPtr data_inout_analysis() { return std::make_shared<DataInOutAnalysis>(); }
TaskPtr loop_dependence_analysis() {
    return std::make_shared<LoopDependenceAnalysis>();
}
TaskPtr loop_tripcount_analysis() {
    return std::make_shared<LoopTripCountAnalysis>();
}
TaskPtr remove_array_plus_eq() { return std::make_shared<RemoveArrayPlusEq>(); }
TaskPtr generate_oneapi_design() {
    return std::make_shared<GenerateOneApiDesign>();
}
TaskPtr unroll_fixed_loops() { return std::make_shared<UnrollFixedLoops>(); }
TaskPtr employ_sp_math_fns() { return std::make_shared<EmploySpMathFns>(); }
TaskPtr employ_sp_numeric_literals() {
    return std::make_shared<EmploySpNumericLiterals>();
}
TaskPtr zero_copy_data_transfer() {
    return std::make_shared<ZeroCopyDataTransfer>();
}
TaskPtr unroll_until_overmap_dse(platform::DeviceId device) {
    return std::make_shared<UnrollUntilOvermapDse>(device);
}
TaskPtr generate_hip_design() { return std::make_shared<GenerateHipDesign>(); }
TaskPtr employ_hip_pinned_memory() {
    return std::make_shared<EmployHipPinnedMemory>();
}
TaskPtr introduce_shared_mem_buf() {
    return std::make_shared<IntroduceSharedMemBuf>();
}
TaskPtr employ_specialised_math_fns() {
    return std::make_shared<EmploySpecialisedMathFns>();
}
TaskPtr blocksize_dse(platform::DeviceId device) {
    return std::make_shared<BlocksizeDse>(device);
}
TaskPtr multi_thread_parallel_loops() {
    return std::make_shared<MultiThreadParallelLoops>();
}
TaskPtr omp_num_threads_dse() { return std::make_shared<OmpNumThreadsDse>(); }

std::vector<TaskPtr> repository() {
    return {
        identify_hotspot_loops(),
        hotspot_loop_extraction(),
        pointer_analysis(),
        arithmetic_intensity_analysis(),
        data_inout_analysis(),
        loop_dependence_analysis(),
        loop_tripcount_analysis(),
        remove_array_plus_eq(),
        generate_oneapi_design(),
        unroll_fixed_loops(),
        employ_sp_math_fns(),
        employ_sp_numeric_literals(),
        unroll_until_overmap_dse(platform::DeviceId::Arria10),
        zero_copy_data_transfer(),
        unroll_until_overmap_dse(platform::DeviceId::Stratix10),
        generate_hip_design(),
        employ_hip_pinned_memory(),
        employ_sp_math_fns(),
        employ_sp_numeric_literals(),
        introduce_shared_mem_buf(),
        employ_specialised_math_fns(),
        blocksize_dse(platform::DeviceId::Gtx1080Ti),
        blocksize_dse(platform::DeviceId::Rtx2080Ti),
        multi_thread_parallel_loops(),
        omp_num_threads_dse(),
    };
}

} // namespace psaflow::flow
