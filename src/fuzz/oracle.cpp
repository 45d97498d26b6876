#include "fuzz/oracle.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <unistd.h>

#include "analysis/dependence.hpp"
#include "analysis/profile_cache.hpp"
#include "ast/builder.hpp"
#include "ast/clone.hpp"
#include "ast/printer.hpp"
#include "ast/walk.hpp"
#include "codegen/codegen.hpp"
#include "codegen/design_spec.hpp"
#include "core/psaflow.hpp"
#include "flow/session.hpp"
#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "meta/instrument.hpp"
#include "meta/query.hpp"
#include "sema/type_check.hpp"
#include "support/cas/cas.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "transform/accumulation.hpp"
#include "transform/extract.hpp"
#include "transform/fission.hpp"
#include "transform/parallel.hpp"
#include "transform/rewrite.hpp"
#include "transform/single_precision.hpp"
#include "transform/unroll.hpp"

namespace psaflow::fuzz {

namespace {

// ----------------------------------------------------------- execution ---

/// Buffer contents (by entry-parameter order) after one interpreted run.
struct RunCapture {
    bool threw = false;
    std::string error;
    std::vector<std::string> names;
    std::vector<std::vector<double>> buffers;
};

RunCapture capture_run(const ast::Module& module, const sema::TypeInfo& types,
                       const analysis::Workload& workload) {
    RunCapture cap;
    auto args = workload.make_args(1.0);
    try {
        (void)interp::run_function(module, types, workload.entry, args);
    } catch (const std::exception& e) {
        cap.threw = true;
        cap.error = e.what();
        return cap;
    }
    for (const auto& arg : args) {
        if (const auto* buf = std::get_if<interp::BufferPtr>(&arg)) {
            cap.names.push_back((*buf)->name());
            cap.buffers.push_back((*buf)->raw());
        }
    }
    return cap;
}

enum class Compare {
    Bitwise, ///< element-for-element identical (NaN matches NaN)
    Approx,  ///< tolerates legitimate re-rounding (SP, scalarised sums)
};

bool both_nan(double a, double b) {
    return std::isnan(a) && std::isnan(b);
}

/// Element comparison under the given mode; nullopt when equivalent.
/// `sens` (optional) is a run of the *original* module with ulp-scale input
/// perturbations: programs with feedback (outputs fed back into inputs
/// across iterations) amplify rounding chaotically, and the observed
/// per-element sensitivity separates that legitimate drift from a transform
/// that actually computes something different.
std::optional<std::string> compare_runs(const RunCapture& base,
                                        const RunCapture& got, Compare mode,
                                        const RunCapture* sens = nullptr) {
    if (got.threw)
        return "transformed module raised: " + got.error;
    if (got.buffers.size() != base.buffers.size())
        return "buffer count changed";
    for (std::size_t b = 0; b < base.buffers.size(); ++b) {
        const auto& ref = base.buffers[b];
        const auto& out = got.buffers[b];
        if (ref.size() != out.size())
            return "buffer '" + base.names[b] + "' resized";
        double max_abs = 0.0;
        for (double v : ref)
            if (std::isfinite(v)) max_abs = std::max(max_abs, std::fabs(v));
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const double r = ref[i], o = out[i];
            if (mode == Compare::Bitwise) {
                if (r == o || both_nan(r, o)) continue;
            } else {
                if (both_nan(r, o)) continue;
                if (std::isinf(r) && std::isinf(o) &&
                    std::signbit(r) == std::signbit(o))
                    continue;
                if (std::fabs(r) > 1e30) continue; // overflow regime
                // Cancellation-dominated elements carry no reliable digits.
                if (std::fabs(r) < 1e-6 * max_abs) continue;
                double tol = 1e-2 * std::max(1.0, std::fabs(r));
                if (sens != nullptr && !sens->threw &&
                    b < sens->buffers.size() &&
                    i < sens->buffers[b].size()) {
                    // Float demotion rounds at every operation; budget a few
                    // hundred times the single-perturbation response.
                    tol += 512.0 * std::fabs(r - sens->buffers[b][i]);
                }
                if (std::fabs(r - o) <= tol) continue;
            }
            std::ostringstream os;
            os.precision(17);
            os << "buffer '" << base.names[b] << "'[" << i << "]: expected "
               << r << ", got " << o;
            return os.str();
        }
    }
    return std::nullopt;
}

/// True when any branch condition reads inexact data — a buffer element, a
/// float literal, or a math call. Rounding changes (single-precision
/// demotion, accumulation re-association) can flip such a comparison and
/// take a legitimately different control path, so value equivalence is not
/// a sound oracle for a mismatch on these programs.
bool inexact_control_flow(const ast::Node& root) {
    bool found = false;
    ast::walk(root, [&](const ast::Node& n) {
        const ast::Expr* cond = nullptr;
        if (const auto* s = ast::dyn_cast<ast::If>(&n)) cond = s->cond.get();
        if (const auto* s = ast::dyn_cast<ast::While>(&n))
            cond = s->cond.get();
        if (cond != nullptr) {
            ast::walk(static_cast<const ast::Node&>(*cond),
                      [&](const ast::Node& c) {
                          switch (c.kind()) {
                              case ast::NodeKind::Index:
                              case ast::NodeKind::FloatLit:
                              case ast::NodeKind::Call:
                                  found = true;
                                  break;
                              default:
                                  break;
                          }
                          return !found;
                      });
        }
        return !found;
    });
    return found;
}

/// Run the original module with every buffer element nudged by a few ulps
/// (float scale) to expose the program's intrinsic conditioning.
RunCapture capture_perturbed_run(const ast::Module& module,
                                 const sema::TypeInfo& types,
                                 const analysis::Workload& workload) {
    RunCapture cap;
    auto args = workload.make_args(1.0);
    SplitMix64 noise(0x9e11ab1e5eedULL);
    for (auto& arg : args) {
        if (auto* buf = std::get_if<interp::BufferPtr>(&arg)) {
            for (std::size_t i = 0; i < (*buf)->size(); ++i) {
                const long long idx = static_cast<long long>(i);
                (*buf)->store(idx, (*buf)->load(idx) *
                                       (1.0 + noise.uniform(-4e-7, 4e-7)));
            }
        }
    }
    try {
        (void)interp::run_function(module, types, workload.entry, args);
    } catch (const std::exception& e) {
        cap.threw = true;
        cap.error = e.what();
        return cap;
    }
    for (const auto& arg : args) {
        if (const auto* buf = std::get_if<interp::BufferPtr>(&arg)) {
            cap.names.push_back((*buf)->name());
            cap.buffers.push_back((*buf)->raw());
        }
    }
    return cap;
}

// ------------------------------------------------- engine differential ---

/// Everything observable from one engine's run, in bit-exact form.
struct EngineCapture {
    bool threw = false;
    std::string error;
    ast::Type result_type = ast::Type::Void;
    std::uint64_t result_bits = 0; ///< value payload as a bit pattern
    std::vector<std::string> names;
    std::vector<std::vector<double>> buffers;
    std::string profile; ///< serialize_profile_payload bytes
};

std::uint64_t value_bits(const interp::Value& v) {
    switch (v.type()) {
        case ast::Type::Int:
            return static_cast<std::uint64_t>(v.as_int());
        case ast::Type::Bool: return v.as_bool() ? 1 : 0;
        case ast::Type::Float:
        case ast::Type::Double: {
            const double d = v.as_double();
            std::uint64_t bits = 0;
            std::memcpy(&bits, &d, sizeof bits);
            return bits;
        }
        default: return 0;
    }
}

EngineCapture capture_engine_run(const ast::Module& module,
                                 const sema::TypeInfo& types,
                                 const analysis::Workload& workload,
                                 const std::string& focus,
                                 const std::vector<ast::Node::Id>& loop_order,
                                 interp::Engine engine) {
    EngineCapture cap;
    auto args = workload.make_args(1.0);
    interp::InterpOptions io;
    io.focus_function = focus;
    io.engine = engine; // explicit: never let the process default decide
    try {
        // Direct run_function — deliberately not the ProfileCache, which
        // would serve one engine's profile to the other and mask bugs.
        const auto run = interp::run_function(module, types, workload.entry,
                                              args, io);
        cap.result_type = run.result.type();
        cap.result_bits = value_bits(run.result);
        cap.profile = analysis::serialize_profile_payload(run.profile,
                                                          loop_order);
    } catch (const std::exception& e) {
        cap.threw = true;
        cap.error = e.what();
        return cap;
    }
    for (const auto& arg : args) {
        if (const auto* buf = std::get_if<interp::BufferPtr>(&arg)) {
            cap.names.push_back((*buf)->name());
            cap.buffers.push_back((*buf)->raw());
        }
    }
    return cap;
}

std::optional<std::string> compare_engine_runs(const EngineCapture& tree,
                                               const EngineCapture& vm) {
    if (tree.threw != vm.threw) {
        if (tree.threw)
            return "tree raised '" + tree.error + "', vm returned normally";
        return "vm raised '" + vm.error + "', tree returned normally";
    }
    if (tree.threw) {
        if (tree.error != vm.error)
            return "error mismatch: tree '" + tree.error + "' vs vm '" +
                   vm.error + "'";
        return std::nullopt;
    }
    if (tree.result_type != vm.result_type ||
        tree.result_bits != vm.result_bits)
        return "entry result differs between engines";
    if (tree.buffers.size() != vm.buffers.size())
        return "buffer count differs between engines";
    for (std::size_t b = 0; b < tree.buffers.size(); ++b) {
        const auto& ref = tree.buffers[b];
        const auto& got = vm.buffers[b];
        if (ref.size() != got.size())
            return "buffer '" + tree.names[b] + "' resized under vm";
        // Bit-pattern comparison: NaN payloads and signed zeros must match
        // too, which `==` would not enforce.
        if (!ref.empty() &&
            std::memcmp(ref.data(), got.data(),
                        ref.size() * sizeof(double)) != 0) {
            for (std::size_t i = 0; i < ref.size(); ++i) {
                std::uint64_t rb = 0;
                std::uint64_t gb = 0;
                std::memcpy(&rb, &ref[i], sizeof rb);
                std::memcpy(&gb, &got[i], sizeof gb);
                if (rb == gb) continue;
                std::ostringstream os;
                os.precision(17);
                os << "buffer '" << tree.names[b] << "'[" << i
                   << "]: tree " << ref[i] << ", vm " << got[i];
                return os.str();
            }
        }
    }
    if (tree.profile != vm.profile)
        return "serialized profile payloads differ (" +
               std::to_string(tree.profile.size()) + " vs " +
               std::to_string(vm.profile.size()) + " bytes)";
    return std::nullopt;
}

// ------------------------------------------------------ pragma edits ---

/// Attach 1-4 pragmas from the transforms' vocabulary to random printed
/// statements of `module` (every statement held in a block's list; bodies
/// themselves print without their own pragmas). `rng` decides placement,
/// so the edit is a pure function of the seed.
void add_random_pragmas(ast::Module& module, SplitMix64& rng) {
    std::vector<ast::Stmt*> stmts;
    for (ast::Block* block : ast::collect<ast::Block>(module))
        for (auto& stmt : block->stmts) stmts.push_back(stmt.get());
    if (stmts.empty()) return;
    std::vector<std::string> names;
    for (const auto& fn : module.functions)
        for (const auto& param : fn->params) names.push_back(param->name);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.next_below(n));
    };
    const std::size_t count = 1 + pick(4);
    for (std::size_t i = 0; i < count; ++i) {
        std::string text;
        switch (pick(3)) {
            case 0:
                text = "omp parallel for num_threads(" +
                       std::to_string(2 << pick(5)) + ")";
                break;
            case 1:
                text = "gpu shared(" +
                       (names.empty() ? std::string("a")
                                      : names[pick(names.size())]) +
                       ")";
                break;
            default:
                text = "unroll " + std::to_string(2 + pick(15));
                break;
        }
        meta::add_pragma(*stmts[pick(stmts.size())], std::move(text));
    }
}

// --------------------------------------------------------- module query ---

/// First outermost loop across the module's functions in order, plus the
/// function containing it. Pre-order position identifies the same loop in
/// any clone of the module.
struct LoopTarget {
    ast::For* loop = nullptr;
    ast::Function* fn = nullptr;
};

LoopTarget first_outer_loop(ast::Module& module) {
    for (const auto& fn : module.functions) {
        auto loops = meta::outermost_for_loops(*fn);
        if (!loops.empty()) return {loops.front(), fn.get()};
    }
    return {};
}

/// Is `name` called exactly once across the module?
bool called_once(ast::Module& module, const std::string& name) {
    return meta::calls_to(module, name).size() == 1;
}

// -------------------------------------------------------- transform run ---

struct TransformCase {
    std::string name;
    Compare mode = Compare::Bitwise;
    /// Apply the transform to a fresh clone. Return false to skip (the
    /// program offers no applicable site); throw psaflow::Error for a
    /// precondition rejection (also a skip).
    std::function<bool(ast::Module&, const sema::TypeInfo&)> apply;
};

} // namespace

OracleOutcome run_oracles(const std::string& source,
                          const OracleOptions& options) {
    OracleOutcome out;
    auto fail = [&out](std::string oracle, std::string detail) {
        out.failures.push_back({std::move(oracle), std::move(detail)});
    };

    // ---- parse + sema (oracle b) -------------------------------------
    ast::ModulePtr module;
    sema::TypeInfo types;
    try {
        module = frontend::parse_module(source, "fuzz");
        ++out.oracles_run;
    } catch (const std::exception& e) {
        fail("parse", e.what());
        return out;
    }
    try {
        types = sema::check(*module);
        ++out.oracles_run;
    } catch (const std::exception& e) {
        fail("sema", e.what());
        return out;
    }

    // ---- print -> parse -> print fixpoint (oracle a) -----------------
    const std::string printed = ast::to_source(*module);
    if (options.check_roundtrip) {
        ++out.oracles_run;
        try {
            auto reparsed = frontend::parse_module(printed, "fuzz");
            const std::string reprinted = ast::to_source(*reparsed);
            if (reprinted != printed)
                fail("roundtrip", "print->parse->print is not a fixpoint");
        } catch (const std::exception& e) {
            fail("roundtrip", std::string("printed source rejected: ") +
                                  e.what());
        }
    }

    // ---- baseline interpretation -------------------------------------
    analysis::Workload workload;
    try {
        workload = fuzz_workload(*module, options.problem_size);
    } catch (const std::exception& e) {
        fail("baseline", std::string("workload construction: ") + e.what());
        return out;
    }
    const RunCapture base = capture_run(*module, types, workload);
    ++out.oracles_run;
    if (base.threw) {
        fail("baseline", "reference interpretation raised: " + base.error);
        return out; // nothing to differentially compare against
    }

    // ---- tree-vs-VM engine differential (oracle interp:vm) ------------
    if (options.check_vm) {
        ++out.oracles_run;
        try {
            // Focus the profile on the function holding the first outer
            // loop — the same choice hotspot extraction makes — so focus
            // counters, buffer access ranges and aliasing probes are all
            // under test, not just totals.
            const LoopTarget target = first_outer_loop(*module);
            const std::string focus =
                target.fn != nullptr ? target.fn->name : std::string();
            std::vector<ast::Node::Id> loop_order;
            for (const auto* l : meta::for_loops(*module))
                loop_order.push_back(l->id);
            const EngineCapture tree =
                capture_engine_run(*module, types, workload, focus,
                                   loop_order, interp::Engine::Tree);
            const EngineCapture vm =
                capture_engine_run(*module, types, workload, focus,
                                   loop_order, interp::Engine::Vm);
            if (const auto mismatch = compare_engine_runs(tree, vm))
                fail("interp:vm", *mismatch);
        } catch (const std::exception& e) {
            fail("interp:vm:crash", e.what());
        }
    }

    // ---- pragma-only edits share one profile (profile:pragma) ---------
    // The profile cache keys on the pragma-free print, so a clone that
    // differs only in pragmas must hit the entry of the original, and the
    // profile it is served must equal an uncached run of the clone.
    if (options.check_cache && analysis::ProfileCache::global().enabled()) {
        ++out.oracles_run;
        try {
            const LoopTarget target = first_outer_loop(*module);
            interp::InterpOptions io;
            io.focus_function =
                target.fn != nullptr ? target.fn->name : std::string();
            auto edited = ast::clone_module(*module);
            SplitMix64 rng(analysis::fnv1a(source.data(), source.size()));
            add_random_pragmas(*edited, rng);
            const sema::TypeInfo edited_types = sema::check(*edited);

            auto& cache = analysis::ProfileCache::global();
            cache.clear();
            (void)cache.run(*module, types, workload.entry,
                            workload.make_args(1.0), io);
            const auto cached = cache.run(*edited, edited_types,
                                          workload.entry,
                                          workload.make_args(1.0), io);
            if (cache.stats().hits != 1) {
                fail("profile:pragma",
                     "a pragma-only edit missed the profile cache");
            } else {
                const auto fresh =
                    interp::run_function(*edited, edited_types,
                                         workload.entry,
                                         workload.make_args(1.0), io);
                std::vector<ast::Node::Id> loop_order;
                for (const auto* l : meta::for_loops(*edited))
                    loop_order.push_back(l->id);
                if (analysis::serialize_profile_payload(cached, loop_order) !=
                    analysis::serialize_profile_payload(fresh.profile,
                                                        loop_order))
                    fail("profile:pragma",
                         "cached profile differs from an uncached run of "
                         "the pragma-edited module");
            }
        } catch (const std::exception& e) {
            fail("profile:pragma:crash", e.what());
        }
    }

    // ---- transform equivalence (oracle c) ----------------------------
    // Conditioning probe for Approx-mode comparisons, computed lazily the
    // first time one runs (it costs an extra interpreter pass).
    std::optional<RunCapture> sens;
    if (options.check_transforms) {
        const LoopTarget target = first_outer_loop(*module);
        // Pre-order index of the target loop among all For nodes, used to
        // re-find the corresponding loop inside each clone.
        int target_index = -1;
        if (target.loop != nullptr) {
            auto all = meta::for_loops(*module);
            for (std::size_t i = 0; i < all.size(); ++i)
                if (all[i] == target.loop)
                    target_index = static_cast<int>(i);
        }
        auto loop_in = [target_index](ast::Module& m) -> ast::For* {
            if (target_index < 0) return nullptr;
            auto all = meta::for_loops(m);
            return static_cast<std::size_t>(target_index) < all.size()
                       ? all[target_index]
                       : nullptr;
        };
        const std::string target_fn =
            target.fn != nullptr ? target.fn->name : std::string();

        std::vector<TransformCase> cases;
        for (int factor : {2, 3}) {
            cases.push_back(
                {"unroll" + std::to_string(factor), Compare::Bitwise,
                 [&loop_in, factor](ast::Module& m, const sema::TypeInfo&) {
                     ast::For* loop = loop_in(m);
                     if (loop == nullptr) return false;
                     transform::unroll_loop(m, *loop, factor);
                     return true;
                 }});
        }
        cases.push_back(
            {"full_unroll", Compare::Bitwise,
             [](ast::Module& m, const sema::TypeInfo&) {
                 for (ast::For* loop : meta::for_loops(m)) {
                     const long long trip = meta::constant_trip_count(*loop);
                     if (trip >= 1 && trip <= 128) {
                         transform::fully_unroll_loop(m, *loop, 128);
                         return true;
                     }
                 }
                 return false;
             }});
        cases.push_back(
            {"extract", Compare::Bitwise,
             [&loop_in](ast::Module& m, const sema::TypeInfo& ti) {
                 ast::For* loop = loop_in(m);
                 if (loop == nullptr) return false;
                 (void)transform::extract_hotspot(m, ti, *loop, "fz_hot");
                 return true;
             }});
        cases.push_back(
            {"fission", Compare::Bitwise,
             [&loop_in, &target_fn](ast::Module& m,
                                    const sema::TypeInfo& ti) {
                 ast::For* loop = loop_in(m);
                 if (loop == nullptr || target_fn.empty() ||
                     target_fn == "run" || !called_once(m, target_fn))
                     return false;
                 // Statement fission reorders work across iterations, so it
                 // only preserves semantics for fully independent loops.
                 const auto dep = analysis::analyze_dependence(m, *loop);
                 if (!dep.parallel || dep.has_reductions() ||
                     !dep.array_accumulations.empty())
                     return false;
                 const std::size_t cut =
                     transform::balanced_cut_point(m, ti, target_fn);
                 (void)transform::split_kernel(m, ti, target_fn, cut);
                 return true;
             }});
        cases.push_back(
            {"parallel", Compare::Bitwise,
             [&loop_in](ast::Module& m, const sema::TypeInfo&) {
                 ast::For* loop = loop_in(m);
                 if (loop == nullptr) return false;
                 const auto dep = analysis::analyze_dependence(m, *loop);
                 if (!dep.parallel) return false;
                 transform::insert_omp_parallel_for(*loop, 4, dep.reductions);
                 return true;
             }});
        cases.push_back(
            {"accumulation", Compare::Approx,
             [](ast::Module& m, const sema::TypeInfo&) {
                 for (ast::For* loop : meta::outermost_for_loops(m))
                     if (transform::remove_array_accumulation(m, *loop) > 0)
                         return true;
                 return false;
             }});
        cases.push_back(
            {"single_precision", Compare::Approx,
             [&target_fn](ast::Module& m, const sema::TypeInfo&) {
                 ast::Function* fn = m.find_function(target_fn);
                 if (fn == nullptr) return false;
                 return transform::employ_single_precision(*fn) > 0;
             }});
        cases.push_back(
            {"rewrite", Compare::Bitwise,
             [&target_fn](ast::Module& m, const sema::TypeInfo&) {
                 // Identity substitution: n := n. Exercises every expression
                 // slot without changing semantics or printed source.
                 ast::Function* fn = m.find_function(target_fn);
                 if (fn == nullptr) return false;
                 const auto n = ast::build::ident("n");
                 int hits = 0;
                 for (auto& stmt : fn->body->stmts)
                     hits += transform::substitute_ident(*stmt, "n", *n);
                 return hits > 0;
             }});

        for (const auto& tc : cases) {
            ++out.oracles_run;
            auto clone = ast::clone_module(*module);
            bool applied = false;
            try {
                sema::TypeInfo clone_types = sema::check(*clone);
                applied = tc.apply(*clone, clone_types);
            } catch (const Error&) {
                ++out.transforms_skipped; // precondition rejection
                continue;
            } catch (const std::exception& e) {
                fail("transform:" + tc.name,
                     std::string("unexpected exception: ") + e.what());
                continue;
            }
            if (!applied) {
                ++out.transforms_skipped;
                continue;
            }
            ++out.transforms_applied;

            // The transformed module must still type-check...
            sema::TypeInfo t2;
            try {
                t2 = sema::check(*clone);
            } catch (const std::exception& e) {
                fail("transform:" + tc.name,
                     std::string("output fails sema: ") + e.what());
                continue;
            }
            // ...still round-trip through the frontend...
            try {
                const std::string s1 = ast::to_source(*clone);
                const std::string s2 =
                    ast::to_source(*frontend::parse_module(s1, "fuzz"));
                if (s1 != s2) {
                    fail("transform:" + tc.name,
                         "output is not a print->parse->print fixpoint");
                    continue;
                }
            } catch (const std::exception& e) {
                fail("transform:" + tc.name,
                     std::string("output source rejected: ") + e.what());
                continue;
            }
            // ...and behave identically under the interpreter.
            const RunCapture got = capture_run(*clone, t2, workload);
            if (tc.mode == Compare::Approx && !sens.has_value())
                sens = capture_perturbed_run(*module, types, workload);
            if (auto diff = compare_runs(
                    base, got, tc.mode,
                    sens.has_value() ? &*sens : nullptr)) {
                // A tolerance mismatch on a program that branches on
                // inexact data is inconclusive — the rounding change the
                // transform is allowed to make can flip the branch itself.
                // Bitwise-mode transforms never round, so they still fail.
                if (tc.mode == Compare::Approx &&
                    inexact_control_flow(*module))
                    continue;
                fail("transform:" + tc.name, *diff);
            }
        }
    }

    // ---- crash-free codegen (oracle d, part 1) -----------------------
    if (options.check_codegen) {
        auto emit = [&](const ast::Module& m, const sema::TypeInfo& ti,
                        codegen::DesignSpec spec, const char* label) {
            ++out.oracles_run;
            try {
                const std::string text = codegen::emit_design(m, ti, spec);
                if (text.empty())
                    fail(std::string("codegen:") + label, "empty design");
            } catch (const std::exception& e) {
                fail(std::string("codegen:") + label, e.what());
            }
        };

        codegen::DesignSpec ref;
        ref.app_name = "fuzz";
        emit(*module, types, ref, "reference");

        codegen::DesignSpec omp = ref;
        omp.target = codegen::TargetKind::CpuOpenMp;
        omp.omp_threads = 8;
        emit(*module, types, omp, "openmp");

        // The GPU/FPGA emitters require an extracted kernel with a single
        // outermost loop; build one the same way the flow does.
        auto clone = ast::clone_module(*module);
        const LoopTarget target = first_outer_loop(*clone);
        if (target.loop != nullptr) {
            try {
                sema::TypeInfo ct = sema::check(*clone);
                (void)transform::extract_hotspot(*clone, ct, *target.loop,
                                                 "fz_hot");
                ct = sema::check(*clone);

                codegen::DesignSpec hip = ref;
                hip.target = codegen::TargetKind::CpuGpu;
                hip.kernel_name = "fz_hot";
                hip.device = platform::DeviceId::Rtx2080Ti;
                hip.block_size = 128;
                emit(*clone, ct, hip, "hip");

                codegen::DesignSpec sycl = ref;
                sycl.target = codegen::TargetKind::CpuFpga;
                sycl.kernel_name = "fz_hot";
                sycl.device = platform::DeviceId::Stratix10;
                sycl.unroll = 4;
                emit(*clone, ct, sycl, "oneapi");
            } catch (const Error&) {
                // extraction precondition rejected: nothing to emit
                out.transforms_skipped += 1;
            } catch (const std::exception& e) {
                fail("codegen:extract",
                     std::string("unexpected exception: ") + e.what());
            }
        }
    }

    // ---- flow engine, jobs=1 vs jobs=N (oracle d, part 2) ------------
    if (options.check_flow) {
        ++out.oracles_run;
        auto run_flow_at = [&](int jobs) {
            struct FlowCapture {
                bool threw = false;
                bool crash = false; ///< non-psaflow exception
                std::string error;
                std::string summary;
            } cap;
            RunOptions ro;
            ro.mode = flow::Mode::Informed;
            ro.jobs = jobs;
            try {
                // A fresh session per run keeps the comparisons honest:
                // nothing is shared between the jobs=1 and jobs=N runs
                // beyond the process-wide caches the oracle controls.
                flow::FlowSession session;
                const auto result =
                    psaflow::compile(session, "fuzz", source, workload,
                                     /*allow_single_precision=*/true, ro);
                std::ostringstream os;
                os.precision(17);
                os << "reference_seconds=" << result.reference_seconds
                   << "\n";
                for (const auto& line : result.log) os << "| " << line << "\n";
                for (const auto& d : result.designs) {
                    os << "design " << d.name() << " speedup=" << d.speedup
                       << " loc_delta=" << d.loc_delta
                       << " synthesizable=" << d.synthesizable << "\n";
                    os << d.source << "\n";
                    for (const auto& line : d.log) os << "| " << line << "\n";
                }
                cap.summary = os.str();
            } catch (const Error& e) {
                cap.threw = true;
                cap.error = e.what();
            } catch (const std::exception& e) {
                cap.threw = true;
                cap.crash = true;
                cap.error = e.what();
            }
            return cap;
        };

        const auto seq = run_flow_at(1);
        const auto par = run_flow_at(options.flow_jobs);
        if (seq.crash)
            fail("flow:crash", "jobs=1: " + seq.error);
        if (par.crash)
            fail("flow:crash",
                 "jobs=" + std::to_string(options.flow_jobs) + ": " +
                     par.error);
        if (!seq.crash && !par.crash) {
            if (seq.threw != par.threw) {
                fail("flow:jobs",
                     std::string("jobs=1 ") +
                         (seq.threw ? "failed ('" + seq.error + "')"
                                    : "succeeded") +
                         " but jobs=" + std::to_string(options.flow_jobs) +
                         (par.threw ? " failed ('" + par.error + "')"
                                    : " succeeded"));
            } else if (seq.threw) {
                if (seq.error != par.error)
                    fail("flow:jobs", "error mismatch: '" + seq.error +
                                          "' vs '" + par.error + "'");
            } else if (seq.summary != par.summary) {
                fail("flow:jobs",
                     "FlowResult differs between jobs=1 and jobs=" +
                         std::to_string(options.flow_jobs));
            }
        }

        // ---- cold vs warm persistent cache (flow:cache) --------------
        // Three states must agree byte for byte: no disk cache (seq,
        // above), a cold run that populates an empty store, and a warm
        // run served from the store with the in-memory caches dropped.
        if (options.check_cache && !seq.crash) {
            ++out.oracles_run;
            namespace fs = std::filesystem;
            static std::atomic<std::uint64_t> cache_serial{0};
            const bool own_dir = options.cache_dir.empty();
            const fs::path root =
                own_dir ? fs::temp_directory_path() /
                              ("psaflow-fuzz-cache-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(++cache_serial))
                        : fs::path(options.cache_dir);

            cas::configure(root.string());
            analysis::ProfileCache::global().clear();
            const auto cold = run_flow_at(1);
            analysis::ProfileCache::global().clear();
            const auto warm = run_flow_at(1);
            cas::configure("");
            if (own_dir) {
                std::error_code ec;
                fs::remove_all(root, ec);
            }

            auto check_against = [&](const char* label,
                                     const decltype(seq)& run) {
                if (run.crash) {
                    fail("flow:crash",
                         std::string(label) + " cache run: " + run.error);
                } else if (seq.threw != run.threw) {
                    fail("flow:cache",
                         std::string("uncached run ") +
                             (seq.threw ? "failed" : "succeeded") + " but " +
                             label + " run " +
                             (run.threw ? "failed ('" + run.error + "')"
                                        : "succeeded"));
                } else if (seq.threw) {
                    if (seq.error != run.error)
                        fail("flow:cache",
                             std::string(label) + " error mismatch: '" +
                                 seq.error + "' vs '" + run.error + "'");
                } else if (seq.summary != run.summary) {
                    fail("flow:cache",
                         "FlowResult differs between the uncached and the " +
                             std::string(label) + " cache run");
                }
            };
            check_against("cold", cold);
            check_against("warm", warm);
        }
    }

    return out;
}

} // namespace psaflow::fuzz
