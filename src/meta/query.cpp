#include "meta/query.hpp"

#include <algorithm>
#include <unordered_set>

#include "support/error.hpp"

namespace psaflow::meta {

using namespace psaflow::ast;

std::vector<For*> for_loops(Node& root,
                            const std::function<bool(const For&)>& pred) {
    return collect<For>(root, pred);
}

std::vector<const For*> outermost_for_loops(const Node& root) {
    std::vector<const For*> out;
    // Walk but do not descend into loop bodies: whatever we reach first is
    // outermost relative to `root`.
    walk(root, [&](const Node& n) {
        if (const auto* loop = dyn_cast<For>(&n)) {
            out.push_back(loop);
            return false;
        }
        return true;
    });
    return out;
}

std::vector<For*> outermost_for_loops(Node& root) {
    std::vector<For*> out;
    walk(root, [&](Node& n) {
        if (auto* loop = dyn_cast<For>(&n)) {
            out.push_back(loop);
            return false;
        }
        return true;
    });
    return out;
}

std::vector<For*> inner_for_loops(For& loop) {
    std::vector<For*> out;
    walk(*loop.body, [&](Node& n) {
        if (auto* inner = dyn_cast<For>(&n)) out.push_back(inner);
        return true;
    });
    return out;
}

int loop_nest_depth(const For& loop) {
    int deepest = 0;
    walk(static_cast<const Node&>(*loop.body), [&](const Node& n) {
        if (const auto* inner = dyn_cast<For>(&n)) {
            deepest = std::max(deepest, loop_nest_depth(*inner));
            return false; // inner loop handled by the recursive call
        }
        return true;
    });
    return deepest + 1;
}

std::optional<long long> fold_int_constant(const Expr& expr) {
    switch (expr.kind()) {
        case NodeKind::IntLit:
            return static_cast<const IntLit&>(expr).value;
        case NodeKind::Unary: {
            const auto& u = static_cast<const Unary&>(expr);
            if (u.op != UnaryOp::Neg) return std::nullopt;
            auto v = fold_int_constant(*u.operand);
            if (!v) return std::nullopt;
            return -*v;
        }
        case NodeKind::Binary: {
            const auto& b = static_cast<const Binary&>(expr);
            auto l = fold_int_constant(*b.lhs);
            auto r = fold_int_constant(*b.rhs);
            if (!l || !r) return std::nullopt;
            switch (b.op) {
                case BinaryOp::Add: return *l + *r;
                case BinaryOp::Sub: return *l - *r;
                case BinaryOp::Mul: return *l * *r;
                case BinaryOp::Div:
                    if (*r == 0) return std::nullopt;
                    return *l / *r;
                default: return std::nullopt;
            }
        }
        default:
            return std::nullopt;
    }
}

bool has_fixed_bounds(const For& loop) {
    return fold_int_constant(*loop.init).has_value() &&
           fold_int_constant(*loop.limit).has_value() &&
           fold_int_constant(*loop.step).has_value();
}

long long constant_trip_count(const For& loop) {
    auto init = fold_int_constant(*loop.init);
    auto limit = fold_int_constant(*loop.limit);
    auto step = fold_int_constant(*loop.step);
    ensure(init && limit && step,
           "constant_trip_count: loop bounds are not compile-time constants");
    ensure(*step > 0, "constant_trip_count: non-positive step");
    if (*limit <= *init) return 0;
    return (*limit - *init + *step - 1) / *step;
}

std::vector<std::string> declared_names(const Node& node) {
    std::vector<std::string> out;
    walk(node, [&](const Node& n) {
        if (const auto* d = dyn_cast<VarDecl>(&n)) out.push_back(d->name);
        if (const auto* f = dyn_cast<For>(&n)) out.push_back(f->var);
        return true;
    });
    return out;
}

std::vector<std::string> free_variables(const Node& node) {
    std::unordered_set<std::string> declared;
    for (const auto& name : declared_names(node)) declared.insert(name);

    std::vector<std::string> out;
    std::unordered_set<std::string> seen;
    walk(node, [&](const Node& n) {
        if (const auto* id = dyn_cast<Ident>(&n)) {
            if (declared.count(id->name) == 0 && seen.insert(id->name).second)
                out.push_back(id->name);
        }
        return true;
    });
    return out;
}

bool writes_variable(Node& node, const std::string& name) {
    bool found = false;
    walk(node, [&](Node& n) {
        if (found) return false;
        if (auto* a = dyn_cast<Assign>(&n)) {
            const Expr* target = a->target.get();
            if (const auto* id = dyn_cast<Ident>(target)) {
                if (id->name == name) found = true;
            } else if (const auto* ix = dyn_cast<Index>(target)) {
                if (const auto* base = dyn_cast<Ident>(ix->base.get());
                    base != nullptr && base->name == name)
                    found = true;
            }
        }
        return !found;
    });
    return found;
}

std::vector<Call*> calls_to(Node& root, const std::string& callee) {
    return collect<Call>(root, [&](const Call& c) {
        return callee.empty() || c.callee == callee;
    });
}

} // namespace psaflow::meta
