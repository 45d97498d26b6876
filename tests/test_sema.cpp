#include <cmath>

#include <gtest/gtest.h>

#include "sema/builtins.hpp"
#include "sema/type_check.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::ast;
using psaflow::testing::parse;
using psaflow::testing::parse_and_check;

// ------------------------------------------------------------- builtins ----

TEST(Builtins, CatalogHasPairedSpVariants) {
    for (const auto& b : sema::all_builtins()) {
        if (!b.is_single) {
            ASSERT_FALSE(b.sp_variant.empty()) << b.name;
            const auto* sp = sema::find_builtin(b.sp_variant);
            ASSERT_NE(sp, nullptr) << b.name;
            EXPECT_TRUE(sp->is_single);
            EXPECT_EQ(sp->arity, b.arity);
            EXPECT_EQ(sp->flop_cost, b.flop_cost);
        }
    }
}

TEST(Builtins, EvalMatchesLibm) {
    const auto* sqrt_info = sema::find_builtin("sqrt");
    ASSERT_NE(sqrt_info, nullptr);
    const double args[] = {9.0};
    EXPECT_DOUBLE_EQ(sema::eval_builtin(*sqrt_info, args), 3.0);

    const auto* pow_info = sema::find_builtin("pow");
    const double pargs[] = {2.0, 10.0};
    EXPECT_DOUBLE_EQ(sema::eval_builtin(*pow_info, pargs), 1024.0);
}

TEST(Builtins, SingleVariantsRoundToFloat) {
    const auto* expf_info = sema::find_builtin("expf");
    ASSERT_NE(expf_info, nullptr);
    const double args[] = {1.0};
    const double got = sema::eval_builtin(*expf_info, args);
    EXPECT_EQ(got, static_cast<double>(std::exp(1.0f)));
    EXPECT_NE(got, std::exp(1.0));
}

TEST(Builtins, DomainErrorsThrow) {
    const auto* sqrt_info = sema::find_builtin("sqrt");
    const double neg[] = {-1.0};
    EXPECT_THROW((void)sema::eval_builtin(*sqrt_info, neg), Error);
    const auto* log_info = sema::find_builtin("log");
    const double zero[] = {0.0};
    EXPECT_THROW((void)sema::eval_builtin(*log_info, zero), Error);
}

// --------------------------------------------------------------- checks ----

TEST(Sema, AcceptsWellTypedModule) {
    EXPECT_NO_THROW(parse_and_check(R"(
double norm(int n, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i] * a[i];
    }
    return sqrt(s);
}
)"));
}

TEST(Sema, ExprTypesArePromoted) {
    auto [mod, types] = parse_and_check(
        "double f(int i, float x, double d) { return i + x * d; }");
    auto* ret =
        dyn_cast<Return>(mod->functions[0]->body->stmts[0].get());
    ASSERT_NE(ret, nullptr);
    EXPECT_EQ(types.type_of(*ret->value), Type::Double);
    const auto* add = dyn_cast<Binary>(ret->value.get());
    EXPECT_EQ(types.type_of(*add->rhs), Type::Double); // x * d
}

TEST(Sema, FloatTimesFloatStaysFloat) {
    auto [mod, types] =
        parse_and_check("float f(float x, float y) { return x * y; }");
    auto* ret = dyn_cast<Return>(mod->functions[0]->body->stmts[0].get());
    EXPECT_EQ(types.type_of(*ret->value), Type::Float);
}

TEST(Sema, RejectsUndeclaredName) {
    EXPECT_THROW(parse_and_check("void f() { x = 1; }"), SemaError);
}

TEST(Sema, RejectsWrongArity) {
    EXPECT_THROW(parse_and_check("double f() { return sqrt(1.0, 2.0); }"),
                 SemaError);
    EXPECT_THROW(parse_and_check("void g(int n) { }\n"
                                 "void f() { g(); }"),
                 SemaError);
}

TEST(Sema, RejectsUnknownFunction) {
    EXPECT_THROW(parse_and_check("void f() { mystery(); }"), SemaError);
}

TEST(Sema, RejectsNonIntSubscript) {
    EXPECT_THROW(parse_and_check("void f(double* a) { a[1.5] = 0.0; }"),
                 SemaError);
}

TEST(Sema, RejectsSubscriptOfScalar) {
    EXPECT_THROW(parse_and_check("void f(double x) { x[0] = 0.0; }"),
                 SemaError);
}

TEST(Sema, RejectsBareArrayUse) {
    EXPECT_THROW(parse_and_check("double f(double* a) { return a; }"),
                 SemaError);
    EXPECT_THROW(parse_and_check("void f(double* a, double* b) { a = b; }"),
                 std::exception);
}

TEST(Sema, RejectsNonBoolCondition) {
    EXPECT_THROW(parse_and_check("void f(int n) { if (n) { } }"), SemaError);
    EXPECT_THROW(parse_and_check("void f(int n) { while (n) { } }"),
                 SemaError);
}

TEST(Sema, RejectsModOnFloats) {
    EXPECT_THROW(parse_and_check("double f(double x) { return x % 2.0; }"),
                 SemaError);
}

TEST(Sema, RejectsReturnMismatch) {
    EXPECT_THROW(parse_and_check("void f() { return 1; }"), SemaError);
    EXPECT_THROW(parse_and_check("int f() { return; }"), SemaError);
}

TEST(Sema, AllowsLoopVarReuseAtSameType) {
    EXPECT_NO_THROW(parse_and_check(R"(
void f(int n, double* a) {
    for (int i = 0; i < n; i++) { a[i] = 0.0; }
    for (int i = 0; i < n; i++) { a[i] = 1.0; }
}
)"));
}

TEST(Sema, RejectsNameReuseAtDifferentType) {
    EXPECT_THROW(parse_and_check(R"(
void f(int n) {
    double x = 0.0;
    int x = 1;
}
)"),
                 SemaError);
}

TEST(Sema, RejectsDuplicateFunctions) {
    EXPECT_THROW(parse_and_check("void f() { }\nvoid f() { }"), SemaError);
}

TEST(Sema, RejectsDuplicateParameterNames) {
    // Two parameters of one name would share one argument slot; calling
    // such a function used to corrupt the VM's register stack.
    try {
        (void)parse_and_check("void g(double* a, double* a) { a[0] = 1.0; }\n"
                              "void f(double* x, double* y) { g(x, y); }");
        FAIL() << "duplicate parameter accepted";
    } catch (const SemaError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "duplicate parameter 'a' in function 'g'"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.where().line, 1u);
    }
    EXPECT_THROW(parse_and_check("void h(int n, double n) { }"), SemaError);
}

TEST(Sema, RejectsFunctionShadowingBuiltin) {
    EXPECT_THROW(parse_and_check("double sqrt(double x) { return x; }"),
                 SemaError);
}

TEST(Sema, ArrayArgumentsMustMatchElementType) {
    EXPECT_THROW(parse_and_check(R"(
void g(float* a) { }
void f(double* a) { g(a); }
)"),
                 SemaError);
}

TEST(Sema, ArrayArgumentMustBeName) {
    EXPECT_THROW(parse_and_check(R"(
void g(double* a) { }
void f(double x) { g(x + 1.0); }
)"),
                 SemaError);
}

TEST(Sema, VariablesListsParamsFirst) {
    auto [mod, types] = parse_and_check(
        "void f(int n, double* a) { double t = 0.0; for (int i = 0; i < n; "
        "i++) { t += a[i]; } }");
    const auto& vars = types.variables(*mod->functions[0]);
    ASSERT_GE(vars.size(), 4u);
    EXPECT_EQ(vars[0].name, "n");
    EXPECT_TRUE(vars[0].is_param);
    EXPECT_EQ(vars[1].name, "a");
    EXPECT_TRUE(vars[1].type.is_pointer);
    EXPECT_EQ(vars[2].name, "t");
    EXPECT_FALSE(vars[2].is_param);
}

TEST(Sema, LocalArraysAreFlagged) {
    auto [mod, types] =
        parse_and_check("void f() { double buf[32]; buf[0] = 1.0; }");
    const auto& vars = types.variables(*mod->functions[0]);
    ASSERT_EQ(vars.size(), 1u);
    EXPECT_TRUE(vars[0].is_array);
    EXPECT_TRUE(vars[0].type.is_pointer);
}

TEST(Sema, StaleTypeInfoDetected) {
    auto [mod, types] = parse_and_check("void f(int n) { n = n + 1; }");
    auto other = parse("void g(int m) { m = m + 2; }");
    auto* assign = dyn_cast<Assign>(other->functions[0]->body->stmts[0].get());
    EXPECT_THROW((void)types.type_of(*assign->value), Error);
}

} // namespace
} // namespace psaflow
