#include "ast/printer.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/string_util.hpp"

namespace psaflow::ast {

namespace {

// Binding strength for parenthesisation; higher binds tighter.
int precedence(BinaryOp op) {
    switch (op) {
        case BinaryOp::Mul:
        case BinaryOp::Div:
        case BinaryOp::Mod: return 6;
        case BinaryOp::Add:
        case BinaryOp::Sub: return 5;
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge: return 4;
        case BinaryOp::Eq:
        case BinaryOp::Ne: return 3;
        case BinaryOp::And: return 2;
        case BinaryOp::Or: return 1;
    }
    return 0;
}

constexpr int kUnaryPrec = 7;

std::string float_spelling(const FloatLit& lit) {
    std::string text = lit.spelling;
    if (text.empty()) {
        text = format_compact(lit.value, 17);
        // Guarantee the token re-lexes as a float, not an int.
        if (text.find_first_of(".eE") == std::string::npos) text += ".0";
    }
    const bool has_suffix = ends_with(text, "f") || ends_with(text, "F");
    if (lit.single && !has_suffix) text += "f";
    if (!lit.single && has_suffix) text.pop_back();
    return text;
}

class Printer {
public:
    explicit Printer(bool pragmas = true) : pragmas_(pragmas) {}

    void expr(const Expr& e, int parent_prec = 0) {
        switch (e.kind()) {
            case NodeKind::IntLit:
                os_ << static_cast<const IntLit&>(e).value;
                break;
            case NodeKind::FloatLit:
                os_ << float_spelling(static_cast<const FloatLit&>(e));
                break;
            case NodeKind::BoolLit:
                os_ << (static_cast<const BoolLit&>(e).value ? "true" : "false");
                break;
            case NodeKind::Ident:
                os_ << static_cast<const Ident&>(e).name;
                break;
            case NodeKind::Unary: {
                const auto& u = static_cast<const Unary&>(e);
                const bool paren = parent_prec > kUnaryPrec;
                if (paren) os_ << '(';
                os_ << (u.op == UnaryOp::Neg ? "-" : "!");
                expr(*u.operand, kUnaryPrec + 1);
                if (paren) os_ << ')';
                break;
            }
            case NodeKind::Binary: {
                const auto& b = static_cast<const Binary&>(e);
                const int prec = precedence(b.op);
                const bool paren = prec < parent_prec;
                if (paren) os_ << '(';
                expr(*b.lhs, prec);
                os_ << ' ' << to_string(b.op) << ' ';
                // Right operand needs strictly-higher binding: HLC binary
                // operators are left-associative.
                expr(*b.rhs, prec + 1);
                if (paren) os_ << ')';
                break;
            }
            case NodeKind::Call: {
                const auto& c = static_cast<const Call&>(e);
                os_ << c.callee << '(';
                for (std::size_t i = 0; i < c.args.size(); ++i) {
                    if (i != 0) os_ << ", ";
                    expr(*c.args[i]);
                }
                os_ << ')';
                break;
            }
            case NodeKind::Index: {
                const auto& x = static_cast<const Index&>(e);
                expr(*x.base, kUnaryPrec + 1);
                os_ << '[';
                expr(*x.index);
                os_ << ']';
                break;
            }
            default:
                throw Error("Printer: not an expression node");
        }
    }

    void stmt(const Stmt& s, int depth) {
        if (pragmas_) {
            for (const auto& pragma : s.pragmas) {
                pad(depth);
                os_ << "#pragma " << pragma << '\n';
            }
        }
        switch (s.kind()) {
            case NodeKind::Block: {
                pad(depth);
                os_ << "{\n";
                block_body(static_cast<const Block&>(s), depth + 1);
                pad(depth);
                os_ << "}\n";
                break;
            }
            case NodeKind::VarDecl: {
                const auto& d = static_cast<const VarDecl&>(s);
                pad(depth);
                os_ << to_string(d.elem) << ' ' << d.name;
                if (d.is_array) {
                    os_ << '[';
                    expr(*d.array_size);
                    os_ << ']';
                }
                if (d.init) {
                    os_ << " = ";
                    expr(*d.init);
                }
                os_ << ";\n";
                break;
            }
            case NodeKind::Assign: {
                const auto& a = static_cast<const Assign&>(s);
                pad(depth);
                expr(*a.target);
                os_ << ' ' << to_string(a.op) << ' ';
                expr(*a.value);
                os_ << ";\n";
                break;
            }
            case NodeKind::If: {
                const auto& i = static_cast<const If&>(s);
                pad(depth);
                os_ << "if (";
                expr(*i.cond);
                os_ << ") {\n";
                block_body(*i.then_body, depth + 1);
                pad(depth);
                os_ << "}";
                if (i.else_body) {
                    os_ << " else {\n";
                    block_body(*i.else_body, depth + 1);
                    pad(depth);
                    os_ << "}";
                }
                os_ << '\n';
                break;
            }
            case NodeKind::For: {
                const auto& f = static_cast<const For&>(s);
                pad(depth);
                os_ << "for (int " << f.var << " = ";
                expr(*f.init);
                os_ << "; " << f.var << " < ";
                expr(*f.limit);
                os_ << "; " << f.var << " = " << f.var << " + ";
                expr(*f.step, kUnaryPrec);
                os_ << ") {\n";
                block_body(*f.body, depth + 1);
                pad(depth);
                os_ << "}\n";
                break;
            }
            case NodeKind::While: {
                const auto& w = static_cast<const While&>(s);
                pad(depth);
                os_ << "while (";
                expr(*w.cond);
                os_ << ") {\n";
                block_body(*w.body, depth + 1);
                pad(depth);
                os_ << "}\n";
                break;
            }
            case NodeKind::Return: {
                const auto& r = static_cast<const Return&>(s);
                pad(depth);
                os_ << "return";
                if (r.value) {
                    os_ << ' ';
                    expr(*r.value);
                }
                os_ << ";\n";
                break;
            }
            case NodeKind::ExprStmt: {
                const auto& e = static_cast<const ExprStmt&>(s);
                pad(depth);
                expr(*e.expr);
                os_ << ";\n";
                break;
            }
            default:
                throw Error("Printer: not a statement node");
        }
    }

    void function(const Function& fn) {
        os_ << to_string(fn.ret) << ' ' << fn.name << '(';
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            if (i != 0) os_ << ", ";
            os_ << to_string(fn.params[i]->type) << ' ' << fn.params[i]->name;
        }
        os_ << ") {\n";
        block_body(*fn.body, 1);
        os_ << "}\n";
    }

    void module(const Module& m) {
        for (std::size_t i = 0; i < m.functions.size(); ++i) {
            if (i != 0) os_ << '\n';
            function(*m.functions[i]);
        }
    }

    [[nodiscard]] std::string str() const { return os_.str(); }

private:
    void block_body(const Block& b, int depth) {
        for (const auto& s : b.stmts) stmt(*s, depth);
    }

    void pad(int depth) {
        for (int i = 0; i < depth; ++i) os_ << "    ";
    }

    bool pragmas_; ///< false: the pragma-free form the profile cache keys on
    std::ostringstream os_;
};

} // namespace

std::string to_source(const Module& module) {
    Printer p;
    p.module(module);
    return p.str();
}

std::string to_source_without_pragmas(const Module& module) {
    Printer p(/*pragmas=*/false);
    p.module(module);
    return p.str();
}

std::string to_source(const Function& fn) {
    Printer p;
    p.function(fn);
    return p.str();
}

std::string to_source(const Stmt& stmt, int depth) {
    Printer p;
    p.stmt(stmt, depth);
    return p.str();
}

std::string to_source(const Expr& expr) {
    Printer p;
    p.expr(expr);
    return p.str();
}

} // namespace psaflow::ast
