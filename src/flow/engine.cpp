#include "flow/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <utility>

#include "analysis/profile_cache.hpp"
#include "ast/printer.hpp"
#include "flow/payload.hpp"
#include "obs/log.hpp"
#include "perf/estimator.hpp"
#include "platform/devices.hpp"
#include "support/cancel.hpp"
#include "support/cas/cas.hpp"
#include "support/error.hpp"
#include "support/string_util.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace psaflow::flow {

using codegen::TargetKind;

const DesignArtifact* FlowResult::best() const {
    const DesignArtifact* out = nullptr;
    for (const auto& d : designs) {
        if (!d.synthesizable) continue;
        if (out == nullptr || d.speedup > out->speedup) out = &d;
    }
    return out;
}

const DesignArtifact* FlowResult::find(TargetKind target,
                                       platform::DeviceId device) const {
    for (const auto& d : designs) {
        if (d.spec.target == target && d.spec.device == device) return &d;
    }
    return nullptr;
}

namespace {

double smem_per_block_kb(FlowContext& ctx) {
    if (ctx.spec.shared_arrays.empty() || ctx.spec.block_size <= 0)
        return 0.0;
    double bytes_per_thread = 0.0;
    for (const auto& arr : ctx.spec.shared_arrays) {
        bytes_per_thread +=
            size_of(ctx.types().var_type(ctx.kernel(), arr).elem);
    }
    return bytes_per_thread * ctx.spec.block_size / 1024.0;
}

void hash_fpga_report(cas::Hasher& h, const platform::FpgaReport& r) {
    h.real(r.replica.luts).real(r.replica.dsps).real(r.replica.bram_kb);
    h.real(r.replica.pipeline_depth).real(r.replica.cycles_per_iter);
    h.boolean(r.replica.ii_is_one);
    h.real(r.total_luts).real(r.total_dsps).real(r.total_bram_kb);
    h.real(r.lut_utilisation).real(r.dsp_utilisation);
    h.real(r.bram_utilisation);
    h.boolean(r.overmapped).i64(r.unroll);
}

} // namespace

std::uint64_t detail::artifact_key(FlowContext& ctx, double reference_seconds,
                                   const std::string& signature) {
    cas::Hasher h;
    h.str("design-artifact");
    h.str(signature);
    h.str(ast::to_source(ctx.module()));
    hash_spec(h, ctx.spec);
    h.boolean(ctx.fpga_report.has_value());
    if (ctx.fpga_report.has_value()) hash_fpga_report(h, *ctx.fpga_report);
    h.u64(ctx.workload_digest());
    h.real(reference_seconds);
    return h.digest();
}

namespace {

DesignArtifact finalize(FlowContext ctx, double reference_seconds,
                        const std::string& signature) {
    poll_cancellation(ctx.cancel);
    trace::ScopedSpan span("finalize:" + ctx.spec.design_name(), "flow");

    // A persistent-cache hit skips the whole evaluation — shape building
    // (and with it the characterisation's interpreter runs), device-model
    // pricing and design emission — and replays the cold run's note, so
    // the restored artifact is byte-identical to a cold finalize.
    cas::CasStore* disk = ctx.store;
    std::uint64_t key = 0;
    if (disk != nullptr) {
        key = detail::artifact_key(ctx, reference_seconds, signature);
        if (auto payload = disk->get(key)) {
            DesignArtifact cached;
            std::string note;
            if (parse_artifact_payload(*payload, cached, note)) {
                trace::Registry::current().count("artifact_cache.hits", 1);
                ctx.note(std::move(note));
                cached.spec = ctx.spec;
                cached.log = ctx.log();
                return cached;
            }
        }
        trace::Registry::current().count("artifact_cache.misses", 1);
    }

    DesignArtifact out;
    out.shape = ctx.shape();

    switch (ctx.spec.target) {
        case TargetKind::None:
            out.hotspot_seconds = reference_seconds;
            break;
        case TargetKind::CpuOpenMp: {
            const int threads = ctx.spec.omp_threads > 0
                                    ? ctx.spec.omp_threads
                                    : platform::epyc7543().cores;
            out.hotspot_seconds = perf::omp_seconds(out.shape, threads);
            break;
        }
        case TargetKind::CpuGpu: {
            perf::GpuDesignPoint point;
            point.device = ctx.spec.device;
            point.block_size =
                ctx.spec.block_size > 0 ? ctx.spec.block_size : 256;
            point.pinned_host_memory = ctx.spec.pinned_host_memory;
            point.smem_per_block_kb = smem_per_block_kb(ctx);
            out.hotspot_seconds =
                perf::gpu_estimate(out.shape, point).total_seconds;
            break;
        }
        case TargetKind::CpuFpga: {
            ensure(ctx.fpga_report.has_value(),
                   "finalize: FPGA design without an unroll DSE report");
            perf::FpgaDesignPoint point;
            point.device = ctx.spec.device;
            point.report = *ctx.fpga_report;
            out.hotspot_seconds =
                perf::fpga_estimate(out.shape, point).total_seconds;
            break;
        }
    }

    out.synthesizable = ctx.spec.synthesizable;
    out.speedup = out.synthesizable && out.hotspot_seconds > 0.0
                      ? reference_seconds / out.hotspot_seconds
                      : 0.0;
    out.source = codegen::emit_design(ctx.module(), ctx.types(), ctx.spec);
    out.loc_delta = codegen::loc_delta(out.source, ctx.reference_source());
    const std::string note =
        "design '" + ctx.spec.design_name() + "': " +
        (out.synthesizable
             ? format_compact(out.speedup, 4) + "x speedup, +" +
                   format_compact(100.0 * out.loc_delta, 3) + "% LOC"
             : "not synthesizable");
    ctx.note(note);
    out.spec = ctx.spec;
    out.log = ctx.log();
    if (disk != nullptr) disk->put(key, serialize_artifact_payload(out, note));
    return out;
}

/// Map a branch-path name onto the representative (target, device) its
/// analytic candidate cost is evaluated with. Branch A names pick the
/// family's first-enumerated device (the device branch underneath refines
/// it); branches B and C name the device directly. Unknown names (custom
/// flows, fuzz-generated paths) get no cost — provenance stays best-effort.
bool candidate_target(const std::string& path, TargetKind& target,
                      platform::DeviceId& device) {
    if (path == "cpu") {
        target = TargetKind::CpuOpenMp;
        device = platform::DeviceId::Epyc7543;
    } else if (path == "gpu" || path == "gtx1080ti") {
        target = TargetKind::CpuGpu;
        device = platform::DeviceId::Gtx1080Ti;
    } else if (path == "rtx2080ti") {
        target = TargetKind::CpuGpu;
        device = platform::DeviceId::Rtx2080Ti;
    } else if (path == "fpga" || path == "arria10") {
        target = TargetKind::CpuFpga;
        device = platform::DeviceId::Arria10;
    } else if (path == "stratix10") {
        target = TargetKind::CpuFpga;
        device = platform::DeviceId::Stratix10;
    } else {
        return false;
    }
    return true;
}

/// Attach analytic cost/budget evaluations to a decision record's
/// candidates: predicted hotspot seconds from the same estimators finalize
/// uses (FPGA candidates priced pre-DSE at unroll 1) and the cost model's
/// USD per run. Evaluates on a throwaway fork so the deliberation can never
/// leak state — notes, cached analyses — into the surviving context, and
/// swallows estimator errors (fuzz-generated flows reach branch points in
/// states the models reject): provenance must never alter control flow.
void annotate_candidates(const FlowContext& ctx, const CostModel& model,
                         obs::DecisionRecord& record) {
    if (!ctx.has_kernel()) return;
    try {
        FlowContext eval = ctx.fork();
        const platform::KernelShape shape = eval.shape();
        for (obs::DecisionCandidate& candidate : record.candidates) {
            TargetKind target = TargetKind::None;
            platform::DeviceId device = platform::DeviceId::Epyc7543;
            if (!candidate_target(candidate.path, target, device)) continue;
            try {
                double seconds = -1.0;
                switch (target) {
                    case TargetKind::CpuOpenMp:
                        seconds = perf::omp_seconds(
                            shape, platform::epyc7543().cores);
                        break;
                    case TargetKind::CpuGpu: {
                        perf::GpuDesignPoint point;
                        point.device = device;
                        point.block_size = 256;
                        seconds =
                            perf::gpu_estimate(shape, point).total_seconds;
                        break;
                    }
                    case TargetKind::CpuFpga: {
                        const platform::FpgaModel fpga(
                            platform::fpga_spec(device));
                        perf::FpgaDesignPoint point;
                        point.device = device;
                        point.report = fpga.report(eval.kernel(), eval.types(),
                                                   1, eval.spec.single_precision);
                        seconds =
                            perf::fpga_estimate(shape, point).total_seconds;
                        break;
                    }
                    default: break;
                }
                if (seconds >= 0.0 && std::isfinite(seconds)) {
                    candidate.predicted_seconds = seconds;
                    candidate.run_cost = model.run_cost(target, seconds);
                }
            } catch (const std::exception& e) {
                obs::debug("flow", "candidate cost evaluation failed",
                           {{"path", candidate.path}, {"error", e.what()}});
            }
        }
    } catch (const std::exception& e) {
        obs::debug("flow", "candidate cost evaluation skipped",
                   {{"branch", record.branch}, {"error", e.what()}});
    }
}

/// Execution plan for one descent. When `pool` is null every path runs
/// inline on the calling thread — the sequential engine. With a pool,
/// sibling paths become parallel jobs; each path writes its leaves (and
/// nested decision records) into its own pre-allocated slot, and slots are
/// concatenated in path order after the join, so the merged artifact and
/// decision sequences are identical to the sequential traversal (stable
/// flow order; design names are unique per flow). Trace sink and active
/// span travel with the jobs via TaskGroup::run.
struct Scheduler {
    ThreadPool* pool = nullptr; ///< null: run inline
    const CostModel* cost_model = nullptr; ///< candidate-cost pricing
    int iteration = 0; ///< budget-feedback round, stamped on records

    void descend(const BranchPoint* branch, FlowContext ctx,
                 double reference_seconds, const std::string& signature,
                 std::vector<DesignArtifact>& out,
                 std::vector<obs::DecisionRecord>& decisions) {
        if (branch == nullptr) {
            out.push_back(
                finalize(std::move(ctx), reference_seconds, signature));
            return;
        }
        obs::DecisionRecord record;
        record.branch = branch->name;
        record.feedback_iteration = iteration;
        const auto indices =
            branch->strategy->select_explained(ctx, *branch, record);
        // Post-fill the skeleton for strategies that don't self-describe
        // (custom PsaStrategy subclasses riding the default delegate).
        if (record.strategy.empty()) record.strategy = branch->strategy->name();
        if (record.candidates.empty()) {
            for (const FlowPath& path : branch->paths) {
                obs::DecisionCandidate candidate;
                candidate.path = path.name;
                record.candidates.push_back(std::move(candidate));
            }
        }
        for (std::size_t idx : indices) {
            if (idx >= branch->paths.size()) continue; // ensure()d below
            const std::string& name = branch->paths[idx].name;
            record.selected.push_back(name);
            for (obs::DecisionCandidate& candidate : record.candidates)
                if (candidate.path == name) candidate.selected = true;
        }
        if (cost_model != nullptr)
            annotate_candidates(ctx, *cost_model, record);
        decisions.push_back(std::move(record));

        if (indices.empty()) {
            // Fig. 3's terminate outcome: the design leaves unmodified.
            ctx.spec.target = TargetKind::None;
            out.push_back(finalize(std::move(ctx), reference_seconds,
                                   signature + "/terminated"));
            return;
        }

        // Fork every selected path up front, on this thread: forking clones
        // the parent module, and doing it before any sibling job starts
        // keeps the parent context immutable while jobs run.
        struct PendingPath {
            const FlowPath* path = nullptr;
            FlowContext ctx;
            std::string signature; ///< grows one task id per task executed
            std::vector<DesignArtifact> leaves;
            std::vector<obs::DecisionRecord> decisions; ///< nested branches
        };
        std::vector<PendingPath> pending;
        pending.reserve(indices.size());
        for (std::size_t idx : indices) {
            ensure(idx < branch->paths.size(),
                   "run_flow: strategy selected an out-of-range path");
            const FlowPath& path = branch->paths[idx];
            FlowContext forked = ctx.fork();
            forked.note("entering path '" + path.name + "' at branch '" +
                        branch->name + "'");
            pending.push_back(PendingPath{&path, std::move(forked),
                                          signature + "/" + path.name,
                                          {},
                                          {}});
        }

        auto run_path = [this, reference_seconds](PendingPath& job) {
            // This may run on a pool thread: the pool re-installed the
            // request's trace sink and active span (TaskGroup::run); the
            // cancellation token still needs installing here so the
            // interpreter's periodic poll sees the right request's token.
            CancelScope cancel_scope(job.ctx.cancel);
            trace::ScopedSpan span("path:" + job.path->name, "flow");
            for (const TaskPtr& task : job.path->tasks) {
                poll_cancellation(job.ctx.cancel);
                trace::ScopedSpan task_span("task:" + task->id(),
                                            task->dynamic() ? "task.dynamic"
                                                            : "task");
                task->run(job.ctx);
                job.signature += ";" + task->id();
            }
            descend(job.path->next.get(), std::move(job.ctx),
                    reference_seconds, job.signature, job.leaves,
                    job.decisions);
        };

        if (pool == nullptr || pending.size() == 1) {
            for (PendingPath& job : pending) run_path(job);
        } else {
            TaskGroup group(*pool);
            for (PendingPath& job : pending)
                group.run([&run_path, &job] { run_path(job); });
            // Helping wait: nested branch points schedule sub-jobs through
            // the same pool, so a waiting parent executes pending work
            // instead of parking a thread. Rethrows the first failed path's
            // exception (in path order), matching the sequential engine's
            // first-failure semantics.
            group.wait();
        }

        for (PendingPath& job : pending) {
            out.insert(out.end(),
                       std::make_move_iterator(job.leaves.begin()),
                       std::make_move_iterator(job.leaves.end()));
            decisions.insert(decisions.end(),
                             std::make_move_iterator(job.decisions.begin()),
                             std::make_move_iterator(job.decisions.end()));
        }
    }
};

/// The branch phase of a flow run, with the Fig. 3 budget feedback loop
/// (bottom): if the selected design's run cost exceeds the budget, exclude
/// its target and re-select. Only meaningful for single-path (informed)
/// strategies.
void run_branches(const BranchPoint& root, FlowContext& ctx,
                  const EngineOptions& engine, Scheduler& scheduler,
                  const std::string& signature, FlowResult& result) {
    std::set<std::string> excluded;
    for (int iteration = 0;; ++iteration) {
        BranchPoint branch = root;
        if (!excluded.empty())
            branch.strategy = informed_strategy(excluded);

        // Designs of a vetoed round are replaced; decision records are kept
        // (each round's records carry its feedback_iteration), so --explain
        // shows the vetoed selection next to the re-selection.
        result.designs.clear();
        scheduler.iteration = iteration;
        scheduler.descend(&branch, ctx.fork(), result.reference_seconds,
                          signature, result.designs, result.decisions);

        if (!engine.budget.constrained() ||
            iteration >= engine.max_feedback_iterations)
            break;

        // Feedback applies only to an *informed* selection: every design of
        // this round belongs to one target family (device branch points may
        // still have produced one design per device).
        TargetKind family = TargetKind::None;
        bool single_family = true;
        for (const auto& d : result.designs) {
            if (d.spec.target == TargetKind::None) continue;
            if (family == TargetKind::None) family = d.spec.target;
            if (d.spec.target != family) single_family = false;
        }
        if (!single_family || family == TargetKind::None) break;

        // Evaluate the cheapest synthesizable design of the family against
        // the budget.
        const DesignArtifact* cheapest = nullptr;
        for (const auto& d : result.designs) {
            if (!d.synthesizable) continue;
            if (cheapest == nullptr ||
                d.hotspot_seconds < cheapest->hotspot_seconds)
                cheapest = &d;
        }
        if (cheapest == nullptr) break;
        const double cost = engine.cost_model.run_cost(
            family, cheapest->hotspot_seconds);
        if (cost <= engine.budget.max_run_cost) break;

        obs::info("flow", "budget feedback: selection vetoed, re-selecting",
                  {{"app", ctx.app_name()},
                   {"iteration", std::to_string(iteration)},
                   {"run_cost", format_compact(cost, 4)},
                   {"budget", format_compact(engine.budget.max_run_cost, 4)}});
        switch (family) {
            case TargetKind::CpuGpu: excluded.insert("gpu"); break;
            case TargetKind::CpuFpga: excluded.insert("fpga"); break;
            case TargetKind::CpuOpenMp: excluded.insert("cpu"); break;
            default: break;
        }
    }
}

} // namespace

SessionOptions session_options(const cli::FlowFlags& flags,
                                const cli::Environment& env) {
    SessionOptions options;
    options.jobs = static_cast<int>(flags.jobs > 0 ? flags.jobs : env.jobs);
    options.cache_dir = flags.cache_dir.empty() ? env.cache_dir
                                                : flags.cache_dir;
    const long long mb =
        flags.cache_max_mb > 0 ? flags.cache_max_mb : env.cache_max_mb;
    options.cache_max_bytes = static_cast<std::uint64_t>(mb) << 20;
    options.profile_cache = env.profile_cache;
    return options;
}

FlowSession::FlowSession(SessionOptions options)
    : options_(std::move(options)),
      store_(options_.cache_dir.empty()
                 ? nullptr
                 : std::make_unique<cas::CasStore>(options_.cache_dir,
                                                   options_.cache_max_bytes)),
      cache_(store_.get()) {
    const int jobs =
        options_.jobs > 0 ? options_.jobs : ThreadPool::default_jobs();
    if (jobs > 1) pool_.emplace(jobs);
}

FlowResult FlowSession::run(const DesignFlow& flow, FlowContext ctx,
                            const EngineOptions& engine) {
    const auto start = std::chrono::steady_clock::now();
    FlowResult result;
    {
        trace::ScopedSpan flow_span("run_flow:" + ctx.app_name(), "flow");
        CancelScope cancel_scope(ctx.cancel);
        ctx.profile_cache = options_.profile_cache ? &cache_ : nullptr;
        ctx.store = store_.get();

        Scheduler scheduler;
        if (pool_.has_value()) scheduler.pool = &*pool_;
        scheduler.cost_model = &engine.cost_model;

        std::string signature = "prologue";
        for (const TaskPtr& task : flow.prologue) {
            poll_cancellation(ctx.cancel);
            trace::ScopedSpan task_span(
                "task:" + task->id(),
                task->dynamic() ? "task.dynamic" : "task");
            task->run(ctx);
            signature += ";" + task->id();
        }

        result.reference_seconds =
            ctx.has_kernel() ? ctx.reference_seconds() : 0.0;
        result.log = ctx.log();

        if (flow.branch == nullptr) {
            result.designs.push_back(finalize(
                std::move(ctx), result.reference_seconds, signature));
        } else {
            run_branches(*flow.branch, ctx, engine, scheduler, signature,
                         result);
        }
    }
    const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    trace::Registry::current().count("flow.runs", 1);
    trace::Registry::current().count("flow.wall_us",
                                    static_cast<std::uint64_t>(wall_us));
    return result;
}

} // namespace psaflow::flow
