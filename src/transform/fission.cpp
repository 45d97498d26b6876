#include "transform/fission.hpp"

#include <algorithm>
#include <unordered_set>

#include "analysis/dependence.hpp"
#include "ast/builder.hpp"
#include "ast/clone.hpp"
#include "ast/walk.hpp"
#include "meta/instrument.hpp"
#include "meta/query.hpp"
#include "sema/builtins.hpp"
#include "support/error.hpp"
#include "transform/rewrite.hpp"

namespace psaflow::transform {

using namespace psaflow::ast;

namespace {

/// Names declared (VarDecl or nested induction) anywhere in `stmt`.
void collect_declared(const Stmt& stmt, std::unordered_set<std::string>& out) {
    walk(static_cast<const Node&>(stmt), [&](const Node& n) {
        if (const auto* d = dyn_cast<VarDecl>(&n)) out.insert(d->name);
        if (const auto* f = dyn_cast<For>(&n)) out.insert(f->var);
        return true;
    });
}

/// Names referenced anywhere in `stmt` (scalars and array bases alike).
void collect_used(const Stmt& stmt, std::unordered_set<std::string>& out) {
    walk(static_cast<const Node&>(stmt), [&](const Node& n) {
        if (const auto* id = dyn_cast<Ident>(&n)) out.insert(id->name);
        return true;
    });
}

/// Rough area weight of one statement: transcendental calls dominate FPGA
/// area by an order of magnitude (a platform-independent stand-in for the
/// operator library costs).
double area_weight(const Stmt& stmt) {
    double weight = 0.0;
    walk(static_cast<const Node&>(stmt), [&](const Node& n) {
        switch (n.kind()) {
            case NodeKind::Call: {
                const auto& c = static_cast<const Call&>(n);
                const auto* b = sema::find_builtin(c.callee);
                weight += b != nullptr ? b->flop_cost * 3.0 : 1.0;
                break;
            }
            case NodeKind::Binary:
            case NodeKind::Unary:
            case NodeKind::Index:
                weight += 1.0;
                break;
            default:
                break;
        }
        return true;
    });
    return weight;
}

/// The single outer loop of a single-loop kernel.
For& only_outer_loop(Function& kernel) {
    auto loops = meta::outermost_for_loops(kernel);
    ensure(loops.size() == 1,
           "split_kernel: kernel must have exactly one outermost loop");
    return *loops.front();
}

} // namespace

std::size_t balanced_cut_point(const Module& module,
                               const sema::TypeInfo& types,
                               const std::string& kernel_name) {
    (void)types;
    Function* kernel =
        const_cast<Module&>(module).find_function(kernel_name);
    ensure(kernel != nullptr, "balanced_cut_point: unknown kernel '" +
                                  kernel_name + "'");
    For& outer = only_outer_loop(*kernel);
    const auto& stmts = outer.body->stmts;
    if (stmts.size() < 2) return 0;

    double total = 0.0;
    std::vector<double> weights;
    weights.reserve(stmts.size());
    for (const auto& s : stmts) {
        weights.push_back(area_weight(*s));
        total += weights.back();
    }
    double prefix = 0.0;
    for (std::size_t i = 0; i + 1 < stmts.size(); ++i) {
        prefix += weights[i];
        if (prefix >= total / 2.0) return i + 1;
    }
    return stmts.size() / 2;
}

SplitResult split_kernel(Module& module, const sema::TypeInfo& types,
                         const std::string& kernel_name, std::size_t cut) {
    Function* kernel = module.find_function(kernel_name);
    ensure(kernel != nullptr,
           "split_kernel: unknown kernel '" + kernel_name + "'");
    For& outer = only_outer_loop(*kernel);
    // The parts are rebuilt from the loop alone, so any statement outside
    // it (a prologue declaration, a trailing store) would be dropped — and
    // with it the names the loop body depends on. Extracted kernels always
    // satisfy this; reject anything else instead of miscompiling.
    ensure(kernel->body->stmts.size() == 1 &&
               kernel->body->stmts.front().get() == &outer,
           "split_kernel: kernel body must consist of exactly its outer "
           "loop");
    ensure(cut > 0 && cut < outer.body->stmts.size(),
           "split_kernel: cut index out of range");

    const auto dep = analysis::analyze_dependence(module, outer);
    ensure(dep.carried.empty() && dep.array_accumulations.empty(),
           "split_kernel: loop carries dependencies; fission would reorder "
           "cross-iteration effects");

    // Exactly one call site, as produced by hotspot extraction.
    auto calls = meta::calls_to(module, kernel_name);
    ensure(calls.size() == 1,
           "split_kernel: kernel must have exactly one call site");

    // ---- scalars live across the cut ----------------------------------
    std::unordered_set<std::string> declared_first;
    for (std::size_t i = 0; i < cut; ++i)
        collect_declared(*outer.body->stmts[i], declared_first);
    std::unordered_set<std::string> used_second;
    for (std::size_t i = cut; i < outer.body->stmts.size(); ++i)
        collect_used(*outer.body->stmts[i], used_second);

    SplitResult result;
    std::vector<Type> spill_types;
    for (const auto& name : declared_first) {
        if (name == outer.var) continue;
        if (used_second.count(name) == 0) continue;
        const ValueType vt = types.var_type(*kernel, name);
        ensure(!vt.is_pointer,
               "split_kernel: cannot spill local array '" + name + "'");
        result.spilled.push_back(name);
        spill_types.push_back(vt.elem);
    }
    // Deterministic order for generated code and tests.
    std::vector<std::size_t> order(result.spilled.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return result.spilled[a] < result.spilled[b];
    });
    {
        std::vector<std::string> names;
        std::vector<Type> ts;
        for (std::size_t i : order) {
            names.push_back(result.spilled[i]);
            ts.push_back(spill_types[i]);
        }
        result.spilled = std::move(names);
        spill_types = std::move(ts);
    }

    // Spill parameter names: `<scalar>_spill`, numbered past any name the
    // kernel already uses — a part split again already carries spill
    // parameters, and two parameters of one name would alias.
    std::unordered_set<std::string> taken;
    for (const auto& p : kernel->params) taken.insert(p->name);
    collect_declared(*kernel->body, taken);
    collect_used(*kernel->body, taken);
    std::vector<std::string> spill_params;
    for (const auto& name : result.spilled) {
        std::string param = name + "_spill";
        for (int n = 2; taken.count(param) != 0; ++n)
            param = name + "_spill" + std::to_string(n);
        taken.insert(param);
        spill_params.push_back(std::move(param));
    }

    result.part1 = kernel_name + "_part1";
    result.part2 = kernel_name + "_part2";
    ensure(module.find_function(result.part1) == nullptr &&
               module.find_function(result.part2) == nullptr,
           "split_kernel: part function names already taken");

    // ---- build the two part functions -------------------------------------
    auto make_part = [&](const std::string& name) {
        auto fn = std::make_unique<Function>();
        fn->ret = Type::Void;
        fn->name = name;
        for (const auto& p : kernel->params) {
            fn->params.push_back(build::param(p->type, p->name));
        }
        for (std::size_t i = 0; i < result.spilled.size(); ++i) {
            fn->params.push_back(build::param(
                ValueType{spill_types[i], true}, spill_params[i]));
        }
        return fn;
    };

    auto part1 = make_part(result.part1);
    auto part2 = make_part(result.part2);

    // Part 1: first segment + spill stores.
    {
        auto body = build::block({});
        for (std::size_t i = 0; i < cut; ++i)
            body->stmts.push_back(clone_stmt(*outer.body->stmts[i]));
        for (std::size_t i = 0; i < result.spilled.size(); ++i) {
            body->stmts.push_back(
                build::assign(build::index(spill_params[i],
                                           build::ident(outer.var)),
                              build::ident(result.spilled[i])));
        }
        part1->body = build::block({});
        part1->body->stmts.push_back(
            build::for_loop(outer.var, clone_expr(*outer.init),
                            clone_expr(*outer.limit), std::move(body),
                            clone_expr(*outer.step)));
    }

    // Part 2: spill loads + second segment.
    {
        auto body = build::block({});
        for (std::size_t i = 0; i < result.spilled.size(); ++i) {
            body->stmts.push_back(build::var_decl(
                spill_types[i], result.spilled[i],
                build::index(spill_params[i], build::ident(outer.var))));
        }
        for (std::size_t i = cut; i < outer.body->stmts.size(); ++i)
            body->stmts.push_back(clone_stmt(*outer.body->stmts[i]));
        part2->body = build::block({});
        part2->body->stmts.push_back(
            build::for_loop(outer.var, clone_expr(*outer.init),
                            clone_expr(*outer.limit), std::move(body),
                            clone_expr(*outer.step)));
    }

    // ---- rewrite the call site ---------------------------------------------
    Call* call = calls.front();
    // Parameter name -> argument expression for sizing the spill arrays.
    ensure(call->args.size() == kernel->params.size(),
           "split_kernel: call arity mismatch");

    ParentMap parents(module);
    auto* call_stmt = parents.enclosing<ExprStmt>(*call);
    ensure(call_stmt != nullptr,
           "split_kernel: kernel call must be a standalone statement");

    auto replacement = build::block({});
    for (std::size_t i = 0; i < result.spilled.size(); ++i) {
        const std::string array_name = kernel_name + "_" + spill_params[i];
        auto decl = build::array_decl(spill_types[i], array_name,
                                      clone_expr(*outer.limit));
        // The limit references kernel parameters; rewrite them in terms of
        // the caller's arguments.
        for (std::size_t p = 0; p < kernel->params.size(); ++p) {
            if (kernel->params[p]->type.is_pointer) continue;
            substitute_ident(*decl, kernel->params[p]->name, *call->args[p]);
        }
        replacement->stmts.push_back(std::move(decl));
    }
    auto make_call = [&](const std::string& callee) {
        std::vector<ExprPtr> args;
        for (const auto& a : call->args) args.push_back(clone_expr(*a));
        for (const auto& param : spill_params)
            args.push_back(build::ident(kernel_name + "_" + param));
        return build::expr_stmt(build::call(callee, std::move(args)));
    };
    replacement->stmts.push_back(make_call(result.part1));
    replacement->stmts.push_back(make_call(result.part2));

    (void)meta::replace_stmt(parents, *call_stmt, std::move(replacement));

    // ---- replace the original kernel with the two parts --------------------
    for (std::size_t i = 0; i < module.functions.size(); ++i) {
        if (module.functions[i].get() == kernel) {
            module.functions[i] = std::move(part1);
            module.functions.insert(
                module.functions.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                std::move(part2));
            return result;
        }
    }
    throw Error("split_kernel: kernel not found in module function list");
}

} // namespace psaflow::transform
