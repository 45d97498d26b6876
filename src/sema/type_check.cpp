#include "sema/type_check.hpp"

#include <unordered_set>

#include "sema/builtins.hpp"
#include "support/error.hpp"

namespace psaflow::sema {

using namespace psaflow::ast;

/// Write access to TypeInfo internals for the checker implementation.
struct TypeInfoAccess {
    static std::unordered_map<const Expr*, Type>& expr_types(TypeInfo& ti) {
        return ti.expr_types_;
    }
    static std::unordered_map<const Function*, std::vector<TypeInfo::VarInfo>>&
    fn_vars(TypeInfo& ti) {
        return ti.fn_vars_;
    }
};

namespace {

/// Numeric promotion: the wider of two numeric types (Double > Float > Int).
Type promote(Type a, Type b, SrcLoc loc) {
    if (!is_numeric(a) || !is_numeric(b))
        throw SemaError(loc, "arithmetic on non-numeric operands");
    if (a == Type::Double || b == Type::Double) return Type::Double;
    if (a == Type::Float || b == Type::Float) return Type::Float;
    return Type::Int;
}

class Checker {
public:
    explicit Checker(const Module& module, TypeInfo& out)
        : module_(module), out_(out) {}

    void run() {
        for (const auto& fn : module_.functions) {
            // Function names must be unique (and not collide with builtins).
            if (find_builtin(fn->name) != nullptr)
                throw SemaError(fn->loc, "function '" + fn->name +
                                             "' shadows a builtin");
            if (!fn_names_.insert(fn->name).second)
                throw SemaError(fn->loc,
                                "duplicate function '" + fn->name + "'");
        }
        for (const auto& fn : module_.functions) check_function(*fn);
    }

private:
    void check_function(const Function& fn) {
        current_fn_ = &fn;
        vars_.clear();
        auto& infos = TypeInfoAccess::fn_vars(out_)[&fn];
        infos.clear();

        for (const auto& p : fn.params) {
            // Each parameter is its own argument slot: a repeated name
            // would alias two arguments (bytecode lowering keys registers
            // by name, so the frame would get fewer slots than arguments).
            if (vars_.count(p->name) != 0)
                throw SemaError(p->loc, "duplicate parameter '" + p->name +
                                            "' in function '" + fn.name +
                                            "'");
            declare(p->name, p->type, p->loc, /*is_param=*/true,
                    /*is_array=*/false);
        }
        check_block(*fn.body);
        current_fn_ = nullptr;
    }

    void declare(const std::string& name, ValueType type, SrcLoc loc,
                 bool is_param, bool is_array) {
        // HLC requires one type per name within a function: re-using a name
        // (e.g. the induction variable `i` across sibling loops) is allowed
        // only at the same type. This keeps the per-function name->type map
        // unambiguous, which hotspot extraction relies on when it computes
        // the free variables of a loop.
        if (auto it = vars_.find(name); it != vars_.end()) {
            if (it->second != type)
                throw SemaError(loc, "redeclaration of '" + name +
                                         "' with a different type");
            return; // same name, same type: already recorded
        }
        vars_.emplace(name, type);
        TypeInfoAccess::fn_vars(out_)[current_fn_].push_back(
            TypeInfo::VarInfo{name, type, is_param, is_array});
    }

    void check_block(const Block& block) {
        for (const auto& s : block.stmts) check_stmt(*s);
    }

    void check_stmt(const Stmt& stmt) {
        switch (stmt.kind()) {
            case NodeKind::Block:
                check_block(static_cast<const Block&>(stmt));
                return;
            case NodeKind::VarDecl: {
                const auto& d = static_cast<const VarDecl&>(stmt);
                if (d.is_array) {
                    const Type st = expr(*d.array_size);
                    if (st != Type::Int)
                        throw SemaError(d.loc, "array size must be int");
                    declare(d.name, ValueType{d.elem, true}, d.loc, false,
                            true);
                } else {
                    declare(d.name, ValueType{d.elem, false}, d.loc, false,
                            false);
                }
                if (d.init) {
                    const Type it = expr(*d.init);
                    require_assignable(ValueType{d.elem, false}, it, d.loc);
                }
                return;
            }
            case NodeKind::Assign: {
                const auto& a = static_cast<const Assign&>(stmt);
                const Type tt = lvalue(*a.target);
                const Type vt = expr(*a.value);
                require_assignable(ValueType{tt, false}, vt, a.loc);
                if (a.op != AssignOp::Set && !is_numeric(tt))
                    throw SemaError(a.loc,
                                    "compound assignment needs numeric target");
                return;
            }
            case NodeKind::If: {
                const auto& i = static_cast<const If&>(stmt);
                require_bool(expr(*i.cond), i.loc);
                check_block(*i.then_body);
                if (i.else_body) check_block(*i.else_body);
                return;
            }
            case NodeKind::For: {
                const auto& f = static_cast<const For&>(stmt);
                if (expr(*f.init) != Type::Int)
                    throw SemaError(f.loc, "for-loop init must be int");
                declare(f.var, ValueType{Type::Int, false}, f.loc, false,
                        false);
                if (expr(*f.limit) != Type::Int)
                    throw SemaError(f.loc, "for-loop limit must be int");
                if (expr(*f.step) != Type::Int)
                    throw SemaError(f.loc, "for-loop step must be int");
                check_block(*f.body);
                return;
            }
            case NodeKind::While: {
                const auto& w = static_cast<const While&>(stmt);
                require_bool(expr(*w.cond), w.loc);
                check_block(*w.body);
                return;
            }
            case NodeKind::Return: {
                const auto& r = static_cast<const Return&>(stmt);
                const Type want = current_fn_->ret;
                if (r.value == nullptr) {
                    if (want != Type::Void)
                        throw SemaError(r.loc, "non-void function '" +
                                                   current_fn_->name +
                                                   "' returns no value");
                } else {
                    const Type got = expr(*r.value);
                    if (want == Type::Void)
                        throw SemaError(r.loc, "void function returns a value");
                    require_assignable(ValueType{want, false}, got, r.loc);
                }
                return;
            }
            case NodeKind::ExprStmt: {
                const auto& e = static_cast<const ExprStmt&>(stmt);
                (void)expr(*e.expr);
                return;
            }
            default:
                throw SemaError(stmt.loc, "unexpected statement node");
        }
    }

    /// Types an assignment target; rejects pointers-as-scalars and indexing
    /// of non-pointers.
    Type lvalue(const Expr& target) {
        if (const auto* id = dyn_cast<Ident>(&target)) {
            const ValueType vt = lookup(id->name, id->loc);
            if (vt.is_pointer)
                throw SemaError(id->loc, "cannot assign to whole array '" +
                                             id->name + "'");
            TypeInfoAccess::expr_types(out_)[&target] = vt.elem;
            return vt.elem;
        }
        if (target.kind() == NodeKind::Index) return expr(target);
        throw SemaError(target.loc, "assignment target must be a variable or "
                                    "array element");
    }

    Type expr(const Expr& e) {
        const Type t = expr_impl(e);
        TypeInfoAccess::expr_types(out_)[&e] = t;
        return t;
    }

    Type expr_impl(const Expr& e) {
        switch (e.kind()) {
            case NodeKind::IntLit: return Type::Int;
            case NodeKind::FloatLit:
                return static_cast<const FloatLit&>(e).single ? Type::Float
                                                              : Type::Double;
            case NodeKind::BoolLit: return Type::Bool;
            case NodeKind::Ident: {
                const auto& id = static_cast<const Ident&>(e);
                const ValueType vt = lookup(id.name, id.loc);
                if (vt.is_pointer)
                    throw SemaError(id.loc, "array '" + id.name +
                                                "' used without subscript");
                return vt.elem;
            }
            case NodeKind::Unary: {
                const auto& u = static_cast<const Unary&>(e);
                const Type ot = expr(*u.operand);
                if (u.op == UnaryOp::Neg) {
                    if (!is_numeric(ot))
                        throw SemaError(u.loc, "negation of non-numeric value");
                    return ot;
                }
                require_bool(ot, u.loc);
                return Type::Bool;
            }
            case NodeKind::Binary: {
                const auto& b = static_cast<const Binary&>(e);
                const Type lt = expr(*b.lhs);
                const Type rt = expr(*b.rhs);
                if (is_logical(b.op)) {
                    require_bool(lt, b.loc);
                    require_bool(rt, b.loc);
                    return Type::Bool;
                }
                if (is_comparison(b.op)) {
                    (void)promote(lt, rt, b.loc);
                    return Type::Bool;
                }
                if (b.op == BinaryOp::Mod) {
                    if (lt != Type::Int || rt != Type::Int)
                        throw SemaError(b.loc, "'%' requires int operands");
                    return Type::Int;
                }
                return promote(lt, rt, b.loc);
            }
            case NodeKind::Call: {
                const auto& c = static_cast<const Call&>(e);
                return call(c);
            }
            case NodeKind::Index: {
                const auto& x = static_cast<const Index&>(e);
                const auto* base = dyn_cast<Ident>(x.base.get());
                if (base == nullptr)
                    throw SemaError(x.loc,
                                    "subscript base must be an array name");
                const ValueType vt = lookup(base->name, base->loc);
                if (!vt.is_pointer)
                    throw SemaError(x.loc, "'" + base->name +
                                               "' is not an array");
                TypeInfoAccess::expr_types(out_)[x.base.get()] = vt.elem;
                if (expr(*x.index) != Type::Int)
                    throw SemaError(x.loc, "array subscript must be int");
                return vt.elem;
            }
            default:
                throw SemaError(e.loc, "unexpected expression node");
        }
    }

    Type call(const Call& c) {
        if (const BuiltinInfo* b = find_builtin(c.callee)) {
            if (static_cast<int>(c.args.size()) != b->arity)
                throw SemaError(c.loc, "builtin '" + c.callee + "' expects " +
                                           std::to_string(b->arity) +
                                           " argument(s)");
            for (const auto& a : c.args) {
                if (!is_numeric(expr(*a)))
                    throw SemaError(c.loc, "builtin '" + c.callee +
                                               "' needs numeric arguments");
            }
            return b->result;
        }
        const Function* callee = module_.find_function(c.callee);
        if (callee == nullptr)
            throw SemaError(c.loc, "call to unknown function '" + c.callee +
                                       "'");
        if (c.args.size() != callee->params.size())
            throw SemaError(c.loc, "call to '" + c.callee + "' expects " +
                                       std::to_string(callee->params.size()) +
                                       " argument(s), got " +
                                       std::to_string(c.args.size()));
        for (std::size_t i = 0; i < c.args.size(); ++i) {
            const ValueType want = callee->params[i]->type;
            if (want.is_pointer) {
                // Arrays are passed by name; the argument must be an array
                // of identical element type.
                const auto* id = dyn_cast<Ident>(c.args[i].get());
                if (id == nullptr)
                    throw SemaError(c.loc, "argument " + std::to_string(i + 1) +
                                               " of '" + c.callee +
                                               "' must be an array name");
                const ValueType got = lookup(id->name, id->loc);
                if (!got.is_pointer || got.elem != want.elem)
                    throw SemaError(c.loc,
                                    "array argument type mismatch in call to '" +
                                        c.callee + "'");
                TypeInfoAccess::expr_types(out_)[c.args[i].get()] = got.elem;
            } else {
                const Type got = expr(*c.args[i]);
                require_assignable(want, got, c.loc);
            }
        }
        return callee->ret;
    }

    ValueType lookup(const std::string& name, SrcLoc loc) const {
        auto it = vars_.find(name);
        if (it == vars_.end())
            throw SemaError(loc, "use of undeclared name '" + name + "'");
        return it->second;
    }

    static void require_bool(Type t, SrcLoc loc) {
        if (t != Type::Bool)
            throw SemaError(loc, "condition must be bool");
    }

    static void require_assignable(ValueType want, Type got, SrcLoc loc) {
        if (want.is_pointer)
            throw SemaError(loc, "cannot assign to an array");
        if (want.elem == Type::Bool) {
            if (got != Type::Bool)
                throw SemaError(loc, "expected a bool value");
            return;
        }
        if (!is_numeric(want.elem) || !is_numeric(got))
            throw SemaError(loc, "incompatible types in assignment");
        // Numeric conversions (including narrowing) follow C semantics.
    }

    const Module& module_;
    TypeInfo& out_;
    const Function* current_fn_ = nullptr;
    std::unordered_map<std::string, ValueType> vars_;
    std::unordered_set<std::string> fn_names_;
};

} // namespace

Type TypeInfo::type_of(const ast::Expr& expr) const {
    auto it = expr_types_.find(&expr);
    ensure(it != expr_types_.end(),
           "TypeInfo::type_of: expression was not checked (stale TypeInfo?)");
    return it->second;
}

ast::ValueType TypeInfo::var_type(const ast::Function& fn,
                                  const std::string& name) const {
    auto it = fn_vars_.find(&fn);
    ensure(it != fn_vars_.end(), "TypeInfo::var_type: unknown function");
    for (const auto& v : it->second) {
        if (v.name == name) return v.type;
    }
    throw SemaError(fn.loc, "variable '" + name + "' not found in function '" +
                                fn.name + "'");
}

const std::vector<TypeInfo::VarInfo>&
TypeInfo::variables(const ast::Function& fn) const {
    auto it = fn_vars_.find(&fn);
    ensure(it != fn_vars_.end(), "TypeInfo::variables: unknown function");
    return it->second;
}

TypeInfo check(const ast::Module& module) {
    TypeInfo info;
    Checker checker(module, info);
    checker.run();
    return info;
}

} // namespace psaflow::sema
