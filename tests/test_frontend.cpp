#include <gtest/gtest.h>

#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::frontend;
using namespace psaflow::ast;
using testing::parse;

// ---------------------------------------------------------------- lexer ----

TEST(Lexer, TokenisesOperators) {
    auto toks = lex("+ - * / % < <= > >= == != && || ! = += -= *= /= ++ --");
    std::vector<TokKind> kinds;
    for (const auto& t : toks) kinds.push_back(t.kind);
    const std::vector<TokKind> want = {
        TokKind::Plus,       TokKind::Minus,       TokKind::Star,
        TokKind::Slash,      TokKind::Percent,     TokKind::Lt,
        TokKind::Le,         TokKind::Gt,          TokKind::Ge,
        TokKind::EqEq,       TokKind::NotEq,       TokKind::AndAnd,
        TokKind::OrOr,       TokKind::Not,         TokKind::Assign,
        TokKind::PlusAssign, TokKind::MinusAssign, TokKind::StarAssign,
        TokKind::SlashAssign, TokKind::PlusPlus,   TokKind::MinusMinus,
        TokKind::End};
    EXPECT_EQ(kinds, want);
}

TEST(Lexer, IntAndFloatLiterals) {
    auto toks = lex("42 3.5 1e3 2.5f 7f");
    EXPECT_EQ(toks[0].kind, TokKind::IntLiteral);
    EXPECT_EQ(toks[0].int_value, 42);
    EXPECT_EQ(toks[1].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks[1].float_value, 3.5);
    EXPECT_FALSE(toks[1].float_single);
    EXPECT_EQ(toks[2].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks[2].float_value, 1000.0);
    EXPECT_EQ(toks[3].kind, TokKind::FloatLiteral);
    EXPECT_TRUE(toks[3].float_single);
    EXPECT_EQ(toks[4].kind, TokKind::FloatLiteral);
    EXPECT_TRUE(toks[4].float_single);
    EXPECT_DOUBLE_EQ(toks[4].float_value, 7.0);
}

TEST(Lexer, KeywordsVsIdentifiers) {
    auto toks = lex("for forty int integer");
    EXPECT_EQ(toks[0].kind, TokKind::KwFor);
    EXPECT_EQ(toks[1].kind, TokKind::Identifier);
    EXPECT_EQ(toks[1].text, "forty");
    EXPECT_EQ(toks[2].kind, TokKind::KwInt);
    EXPECT_EQ(toks[3].kind, TokKind::Identifier);
}

TEST(Lexer, CommentsAreSkipped) {
    auto toks = lex("a // line comment\nb /* block\ncomment */ c");
    ASSERT_EQ(toks.size(), 4u); // a b c eof
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
    EXPECT_EQ(toks[2].text, "c");
}

TEST(Lexer, PragmaCapturesLine) {
    auto toks = lex("#pragma omp parallel for\nx");
    EXPECT_EQ(toks[0].kind, TokKind::Pragma);
    EXPECT_EQ(toks[0].text, "omp parallel for");
    EXPECT_EQ(toks[1].text, "x");
}

TEST(Lexer, TracksLineNumbers) {
    auto toks = lex("a\nb\n  c");
    EXPECT_EQ(toks[0].loc.line, 1u);
    EXPECT_EQ(toks[1].loc.line, 2u);
    EXPECT_EQ(toks[2].loc.line, 3u);
    EXPECT_EQ(toks[2].loc.col, 3u);
}

TEST(Lexer, RejectsUnknownCharacters) {
    EXPECT_THROW(lex("a $ b"), ParseError);
    EXPECT_THROW(lex("a & b"), ParseError);
    EXPECT_THROW(lex("/* unterminated"), ParseError);
}

TEST(Lexer, RejectsNonPragmaHash) {
    EXPECT_THROW(lex("#include <x>"), ParseError);
}

// --------------------------------------------------------------- parser ----

TEST(Parser, ParsesFunctionSignature) {
    auto mod = parse("void f(int n, double* a, float b) { return; }");
    ASSERT_EQ(mod->functions.size(), 1u);
    const Function& f = *mod->functions[0];
    EXPECT_EQ(f.name, "f");
    EXPECT_EQ(f.ret, Type::Void);
    ASSERT_EQ(f.params.size(), 3u);
    EXPECT_EQ(f.params[0]->type, (ValueType{Type::Int, false}));
    EXPECT_EQ(f.params[1]->type, (ValueType{Type::Double, true}));
    EXPECT_EQ(f.params[2]->type, (ValueType{Type::Float, false}));
}

TEST(Parser, CanonicalisesForLoopVariants) {
    const char* variants[] = {
        "void f(int n) { for (int i = 0; i < n; i++) { } }",
        "void f(int n) { for (int i = 0; i < n; ++i) { } }",
        "void f(int n) { for (int i = 0; i < n; i += 1) { } }",
        "void f(int n) { for (int i = 0; i < n; i = i + 1) { } }",
    };
    for (const char* src : variants) {
        auto mod = parse(src);
        auto* loop =
            dyn_cast<For>(mod->functions[0]->body->stmts[0].get());
        ASSERT_NE(loop, nullptr) << src;
        EXPECT_EQ(loop->var, "i");
        auto* step = dyn_cast<IntLit>(loop->step.get());
        ASSERT_NE(step, nullptr);
        EXPECT_EQ(step->value, 1);
    }
}

TEST(Parser, NormalisesLessEqual) {
    auto mod = parse("void f(int n) { for (int i = 0; i <= n; i++) { } }");
    auto* loop = dyn_cast<For>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(loop, nullptr);
    // limit becomes n + 1
    auto* limit = dyn_cast<Binary>(loop->limit.get());
    ASSERT_NE(limit, nullptr);
    EXPECT_EQ(limit->op, BinaryOp::Add);
}

TEST(Parser, RejectsMalformedForLoops) {
    EXPECT_THROW(parse("void f(int n) { for (int i = 0; i > n; i++) { } }"),
                 ParseError);
    EXPECT_THROW(parse("void f(int n) { for (int i = 0; j < n; i++) { } }"),
                 ParseError);
    EXPECT_THROW(parse("void f(int n) { for (int i = 0; i < n; j++) { } }"),
                 ParseError);
    EXPECT_THROW(parse("void f(int n) { for (i = 0; i < n; i++) { } }"),
                 ParseError);
}

TEST(Parser, PragmasAttachToNextStatement) {
    auto mod = parse("void f(int n) {\n"
                     "#pragma omp parallel for\n"
                     "#pragma unroll 4\n"
                     "    for (int i = 0; i < n; i++) { }\n"
                     "}");
    auto* loop = dyn_cast<For>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(loop, nullptr);
    ASSERT_EQ(loop->pragmas.size(), 2u);
    EXPECT_EQ(loop->pragmas[0], "omp parallel for");
    EXPECT_EQ(loop->pragmas[1], "unroll 4");
}

TEST(Parser, PrecedenceMulBeforeAdd) {
    auto e = frontend::parse_expression("a + b * c");
    auto* add = dyn_cast<Binary>(e.get());
    ASSERT_NE(add, nullptr);
    EXPECT_EQ(add->op, BinaryOp::Add);
    auto* mul = dyn_cast<Binary>(add->rhs.get());
    ASSERT_NE(mul, nullptr);
    EXPECT_EQ(mul->op, BinaryOp::Mul);
}

TEST(Parser, LeftAssociativeSubtraction) {
    auto e = frontend::parse_expression("a - b - c");
    // Must parse as (a - b) - c.
    auto* outer = dyn_cast<Binary>(e.get());
    ASSERT_NE(outer, nullptr);
    auto* inner = dyn_cast<Binary>(outer->lhs.get());
    ASSERT_NE(inner, nullptr);
    auto* rhs = dyn_cast<Ident>(outer->rhs.get());
    ASSERT_NE(rhs, nullptr);
    EXPECT_EQ(rhs->name, "c");
}

TEST(Parser, ComparisonAndLogicalPrecedence) {
    auto e = frontend::parse_expression("a < b && c < d || e < f");
    auto* orr = dyn_cast<Binary>(e.get());
    ASSERT_NE(orr, nullptr);
    EXPECT_EQ(orr->op, BinaryOp::Or);
    auto* andd = dyn_cast<Binary>(orr->lhs.get());
    ASSERT_NE(andd, nullptr);
    EXPECT_EQ(andd->op, BinaryOp::And);
}

TEST(Parser, ElseIfChains) {
    auto mod = parse("void f(int n) {\n"
                     "  if (n < 0) { n = 0; } else if (n < 10) { n = 1; }\n"
                     "  else { n = 2; }\n"
                     "}");
    auto* outer = dyn_cast<If>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(outer->else_body, nullptr);
    auto* nested = dyn_cast<If>(outer->else_body->stmts[0].get());
    ASSERT_NE(nested, nullptr);
    ASSERT_NE(nested->else_body, nullptr);
}

TEST(Parser, SingleStatementBodiesGetBlocks) {
    auto mod = parse("void f(int n) { if (n < 0) n = 0; }");
    auto* iff = dyn_cast<If>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(iff, nullptr);
    EXPECT_EQ(iff->then_body->stmts.size(), 1u);
}

TEST(Parser, ArrayDeclAndSubscript) {
    auto mod = parse("void f(double* a) { double t[16]; t[0] = a[3]; }");
    auto* decl = dyn_cast<VarDecl>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(decl, nullptr);
    EXPECT_TRUE(decl->is_array);
    auto* assign = dyn_cast<Assign>(mod->functions[0]->body->stmts[1].get());
    ASSERT_NE(assign, nullptr);
    EXPECT_EQ(assign->target->kind(), NodeKind::Index);
}

TEST(Parser, CompoundAssignments) {
    auto mod = parse("void f(double* a, int i) {"
                     " a[i] += 1.0; a[i] -= 2.0; a[i] *= 3.0; a[i] /= 4.0; }");
    const auto& stmts = mod->functions[0]->body->stmts;
    EXPECT_EQ(dyn_cast<Assign>(stmts[0].get())->op, AssignOp::Add);
    EXPECT_EQ(dyn_cast<Assign>(stmts[1].get())->op, AssignOp::Sub);
    EXPECT_EQ(dyn_cast<Assign>(stmts[2].get())->op, AssignOp::Mul);
    EXPECT_EQ(dyn_cast<Assign>(stmts[3].get())->op, AssignOp::Div);
}

TEST(Parser, RejectsAssignToExpression) {
    EXPECT_THROW(parse("void f(int a) { a + 1 = 2; }"), ParseError);
}

TEST(Parser, RejectsGarbageAtFunctionLevel) {
    EXPECT_THROW(parse("banana"), ParseError);
    EXPECT_THROW(parse("void f( { }"), ParseError);
    EXPECT_THROW(parse("void f() { x = ; }"), ParseError);
}

TEST(Parser, EmptyFunctionBodyIsFine) {
    auto mod = parse("void f() { }");
    EXPECT_TRUE(mod->functions[0]->body->stmts.empty());
}

TEST(Parser, WhileLoop) {
    auto mod = parse("int f(int n) { int s = 0; while (s < n) { s = s + 1; } "
                     "return s; }");
    auto* w = dyn_cast<While>(mod->functions[0]->body->stmts[1].get());
    ASSERT_NE(w, nullptr);
}

// Hostile nesting: the parser itself would overflow its stack at 200k
// levels, and every later pass recurses over the tree, so nesting past the
// cap is a located parse error instead.

std::string repeated(std::string_view piece, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += piece;
    return out;
}

/// Parses `src` expecting the nesting cap's error; returns its location.
SrcLoc nesting_error(const std::string& src) {
    try {
        (void)parse(src);
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("nesting exceeds"),
                  std::string::npos)
            << e.what();
        return e.where();
    }
    ADD_FAILURE() << "no parse error";
    return {};
}

TEST(Parser, NestedParenthesesUpToTheCapParse) {
    const std::string src = "int f(int a) { return " + repeated("(", 100) +
                            "a" + repeated(")", 100) + "; }";
    auto mod = parse(src);
    auto* r = dyn_cast<Return>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->value->kind(), NodeKind::Ident);
}

TEST(Parser, LongChainsBelowTheCapParse) {
    // Each operator of a chain counts as a level, so a long but valid sum
    // must stay well inside the cap.
    const int terms = 400;
    auto mod = parse("int f(int a) { return a" + repeated(" + a", terms - 1) +
                     "; }");
    auto* r = dyn_cast<Return>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(r, nullptr);
    int depth = 0;
    for (const auto* b = dyn_cast<Binary>(r->value.get()); b != nullptr;
         b = dyn_cast<Binary>(b->lhs.get()))
        ++depth;
    EXPECT_EQ(depth, terms - 1);
}

TEST(Parser, NestedParenthesesPastTheCapAreALocatedError) {
    const int n = 200000;
    const std::string src = "int f(int a) {\n  return " + repeated("(", n) +
                            "a" + repeated(")", n) + ";\n}\n";
    const SrcLoc at = nesting_error(src);
    EXPECT_EQ(at.line, 2u);
    // The first '(' is column 10; the error is at the one past the cap.
    EXPECT_GT(at.col, 10u);
    EXPECT_LT(at.col, 10u + kMaxNesting);
    // Unary operators nest the same way, and so does each operator of a
    // chain, which builds a tree as deep as it is long.
    (void)nesting_error("int f(int a) { return " + repeated("- ", n) +
                        "a; }");
    (void)nesting_error("int f(int a) { return a" + repeated(" + a", n) +
                        "; }");
}

TEST(Parser, NestedBlocksUpToTheCapParse) {
    auto mod = parse("void f() " + repeated("{ ", 100) + repeated("} ", 100));
    const Block* b = mod->functions[0]->body.get();
    int depth = 1;
    while (!b->stmts.empty()) {
        b = dyn_cast<Block>(b->stmts[0].get());
        ASSERT_NE(b, nullptr);
        ++depth;
    }
    EXPECT_EQ(depth, 100);
}

TEST(Parser, NestedBlocksPastTheCapAreALocatedError) {
    const int n = 200000;
    const SrcLoc at =
        nesting_error("void f()\n" + repeated("{", n) + repeated("}", n));
    EXPECT_EQ(at.line, 2u);
    // The body's '{' is column 1; each nested one is a statement.
    EXPECT_EQ(at.col, 2u + kMaxNesting);
    // So do nested ifs and long else-if chains.
    (void)nesting_error("void f(int a) { " + repeated("if (a) ", n) +
                        "a = 1; }");
    (void)nesting_error("void f(int a) { if (a) a = 1;" +
                        repeated(" else if (a) a = 1;", n) + " }");
}

} // namespace
} // namespace psaflow
