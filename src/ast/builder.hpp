// Terse factories for constructing AST fragments programmatically. The
// transform and code-generation passes synthesise new code (kernel wrappers,
// timer instrumentation, unrolled bodies) through these helpers.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ast/nodes.hpp"

namespace psaflow::ast::build {

[[nodiscard]] inline ExprPtr int_lit(long long v) {
    auto e = std::make_unique<IntLit>();
    e->value = v;
    return e;
}

[[nodiscard]] inline ExprPtr float_lit(double v, bool single = false) {
    auto e = std::make_unique<FloatLit>();
    e->value = v;
    e->single = single;
    return e;
}

/// Float literal with an explicit source spelling (e.g. "0.125"); the
/// printer re-emits the spelling verbatim, so built modules round-trip
/// byte-identically through print -> parse -> print.
[[nodiscard]] inline ExprPtr float_lit(double v, std::string spelling,
                                       bool single = false) {
    auto e = std::make_unique<FloatLit>();
    e->value = v;
    e->single = single;
    e->spelling = std::move(spelling);
    return e;
}

[[nodiscard]] inline ExprPtr ident(std::string name) {
    auto e = std::make_unique<Ident>();
    e->name = std::move(name);
    return e;
}

[[nodiscard]] inline ExprPtr unary(UnaryOp op, ExprPtr operand) {
    auto e = std::make_unique<Unary>();
    e->op = op;
    e->operand = std::move(operand);
    return e;
}

[[nodiscard]] inline ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Binary>();
    e->op = op;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
}

[[nodiscard]] inline ExprPtr add(ExprPtr l, ExprPtr r) {
    return binary(BinaryOp::Add, std::move(l), std::move(r));
}
[[nodiscard]] inline ExprPtr sub(ExprPtr l, ExprPtr r) {
    return binary(BinaryOp::Sub, std::move(l), std::move(r));
}
[[nodiscard]] inline ExprPtr mul(ExprPtr l, ExprPtr r) {
    return binary(BinaryOp::Mul, std::move(l), std::move(r));
}
[[nodiscard]] inline ExprPtr lt(ExprPtr l, ExprPtr r) {
    return binary(BinaryOp::Lt, std::move(l), std::move(r));
}

[[nodiscard]] inline ExprPtr call(std::string callee,
                                  std::vector<ExprPtr> args = {}) {
    auto e = std::make_unique<Call>();
    e->callee = std::move(callee);
    e->args = std::move(args);
    return e;
}

[[nodiscard]] inline ExprPtr index(ExprPtr base, ExprPtr idx) {
    auto e = std::make_unique<Index>();
    e->base = std::move(base);
    e->index = std::move(idx);
    return e;
}

[[nodiscard]] inline ExprPtr index(std::string array, ExprPtr idx) {
    return index(ident(std::move(array)), std::move(idx));
}

[[nodiscard]] inline StmtPtr var_decl(Type elem, std::string name,
                                      ExprPtr init = nullptr) {
    auto s = std::make_unique<VarDecl>();
    s->elem = elem;
    s->name = std::move(name);
    s->init = std::move(init);
    return s;
}

[[nodiscard]] inline StmtPtr array_decl(Type elem, std::string name,
                                        ExprPtr size) {
    auto s = std::make_unique<VarDecl>();
    s->elem = elem;
    s->name = std::move(name);
    s->is_array = true;
    s->array_size = std::move(size);
    return s;
}

[[nodiscard]] inline StmtPtr assign(ExprPtr target, ExprPtr value,
                                    AssignOp op = AssignOp::Set) {
    auto s = std::make_unique<Assign>();
    s->op = op;
    s->target = std::move(target);
    s->value = std::move(value);
    return s;
}

[[nodiscard]] inline StmtPtr expr_stmt(ExprPtr expr) {
    auto s = std::make_unique<ExprStmt>();
    s->expr = std::move(expr);
    return s;
}

[[nodiscard]] inline StmtPtr ret(ExprPtr value = nullptr) {
    auto s = std::make_unique<Return>();
    s->value = std::move(value);
    return s;
}

[[nodiscard]] inline BlockPtr block(std::vector<StmtPtr> stmts = {}) {
    auto b = std::make_unique<Block>();
    b->stmts = std::move(stmts);
    return b;
}

/// Canonical counted loop `for (int var = init; var < limit; var += step)`.
[[nodiscard]] inline std::unique_ptr<For> for_loop(std::string var,
                                                   ExprPtr init, ExprPtr limit,
                                                   BlockPtr body,
                                                   ExprPtr step = nullptr) {
    auto s = std::make_unique<For>();
    s->var = std::move(var);
    s->init = std::move(init);
    s->limit = std::move(limit);
    s->step = step ? std::move(step) : int_lit(1);
    s->body = std::move(body);
    return s;
}

[[nodiscard]] inline StmtPtr while_loop(ExprPtr cond, BlockPtr body) {
    auto s = std::make_unique<While>();
    s->cond = std::move(cond);
    s->body = std::move(body);
    return s;
}

[[nodiscard]] inline StmtPtr if_stmt(ExprPtr cond, BlockPtr then_body,
                                     BlockPtr else_body = nullptr) {
    auto s = std::make_unique<If>();
    s->cond = std::move(cond);
    s->then_body = std::move(then_body);
    s->else_body = std::move(else_body);
    return s;
}

[[nodiscard]] inline ParamPtr param(ValueType type, std::string name) {
    auto p = std::make_unique<Param>();
    p->type = type;
    p->name = std::move(name);
    return p;
}

[[nodiscard]] inline FunctionPtr function(Type ret, std::string name,
                                          std::vector<ParamPtr> params,
                                          BlockPtr body) {
    auto f = std::make_unique<Function>();
    f->ret = ret;
    f->name = std::move(name);
    f->params = std::move(params);
    f->body = std::move(body);
    return f;
}

[[nodiscard]] inline ModulePtr module(std::string name,
                                      std::vector<FunctionPtr> functions) {
    auto m = std::make_unique<Module>();
    m->name = std::move(name);
    m->functions = std::move(functions);
    return m;
}

} // namespace psaflow::ast::build
