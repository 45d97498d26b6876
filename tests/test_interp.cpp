#include <cmath>

#include <gtest/gtest.h>

#include "ast/walk.hpp"
#include "interp/interpreter.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::interp;
using psaflow::testing::parse_and_check;

Value num(double v) { return Value::of_double(v); }
Value integer(long long v) { return Value::of_int(v); }

TEST(Interp, EvaluatesArithmetic) {
    auto [mod, types] =
        parse_and_check("double f(double a, double b) { return a * b + 2.0; }");
    Interpreter in(*mod, types);
    EXPECT_DOUBLE_EQ(in.call("f", {num(3.0), num(4.0)}).as_double(), 14.0);
}

TEST(Interp, IntegerDivisionTruncates) {
    auto [mod, types] = parse_and_check("int f(int a, int b) { return a / b; }");
    Interpreter in(*mod, types);
    EXPECT_EQ(in.call("f", {integer(7), integer(2)}).as_int(), 3);
    EXPECT_EQ(in.call("f", {integer(-7), integer(2)}).as_int(), -3);
}

TEST(Interp, DivisionByZeroThrows) {
    auto [mod, types] = parse_and_check("int f(int a) { return a / 0; }");
    Interpreter in(*mod, types);
    EXPECT_THROW((void)in.call("f", {integer(1)}), InterpError);
}

TEST(Interp, LoopsAccumulate) {
    auto [mod, types] = parse_and_check(R"(
int sum_to(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += i;
    }
    return s;
}
)");
    Interpreter in(*mod, types);
    EXPECT_EQ(in.call("sum_to", {integer(10)}).as_int(), 45);
    EXPECT_EQ(in.call("sum_to", {integer(0)}).as_int(), 0);
}

TEST(Interp, WhileLoops) {
    auto [mod, types] = parse_and_check(R"(
int collatz_steps(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
    }
    return steps;
}
)");
    Interpreter in(*mod, types);
    EXPECT_EQ(in.call("collatz_steps", {integer(6)}).as_int(), 8);
}

TEST(Interp, BuffersReadAndWrite) {
    auto [mod, types] = parse_and_check(R"(
void saxpy(int n, float* y, float* x, float a) {
    for (int i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
    }
}
)");
    auto x = std::make_shared<Buffer>(ast::Type::Float, 4, "x");
    auto y = std::make_shared<Buffer>(ast::Type::Float, 4, "y");
    for (int i = 0; i < 4; ++i) {
        x->store(i, i + 1.0);
        y->store(i, 1.0);
    }
    Interpreter in(*mod, types);
    in.call("saxpy", {integer(4), y, x, Value::of_float(2.0)});
    EXPECT_FLOAT_EQ(static_cast<float>(y->load(0)), 3.0f);
    EXPECT_FLOAT_EQ(static_cast<float>(y->load(3)), 9.0f);
}

TEST(Interp, BufferOutOfBoundsThrows) {
    auto [mod, types] =
        parse_and_check("void f(double* a, int i) { a[i] = 1.0; }");
    auto buf = std::make_shared<Buffer>(ast::Type::Double, 4, "a");
    Interpreter in(*mod, types);
    EXPECT_THROW(in.call("f", {buf, integer(4)}), InterpError);
    EXPECT_THROW(in.call("f", {buf, integer(-1)}), InterpError);
}

TEST(Interp, LocalArrays) {
    auto [mod, types] = parse_and_check(R"(
double f(int n) {
    double tmp[8];
    for (int i = 0; i < n; i++) {
        tmp[i] = i * 2.0;
    }
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += tmp[i];
    }
    return s;
}
)");
    Interpreter in(*mod, types);
    EXPECT_DOUBLE_EQ(in.call("f", {integer(8)}).as_double(), 56.0);
}

TEST(Interp, UserFunctionCallsAndArrayPassing) {
    auto [mod, types] = parse_and_check(R"(
double dot(int n, double* a, double* b) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i] * b[i];
    }
    return s;
}

double norm2(int n, double* a) {
    return dot(n, a, a);
}
)");
    auto a = std::make_shared<Buffer>(ast::Type::Double, 3, "a");
    a->store(0, 1.0);
    a->store(1, 2.0);
    a->store(2, 2.0);
    Interpreter in(*mod, types);
    EXPECT_DOUBLE_EQ(in.call("norm2", {integer(3), a}).as_double(), 9.0);
}

TEST(Interp, FloatArithmeticRoundsToSingle) {
    auto [mod, types] = parse_and_check(R"(
float f(float a, float b) { return a * b; }
double g(double a, double b) { return a * b; }
)");
    Interpreter in(*mod, types);
    const double a = 1.0000001;
    const double b = 1.0000003;
    const double ff =
        in.call("f", {Value::of_float(a), Value::of_float(b)}).as_double();
    const double gg = in.call("g", {num(a), num(b)}).as_double();
    EXPECT_EQ(ff, static_cast<double>(static_cast<float>(a) *
                                      static_cast<float>(b)));
    EXPECT_NE(ff, gg);
}

TEST(Interp, FloatBuffersRoundOnStore) {
    auto [mod, types] =
        parse_and_check("void f(float* a, double v) { a[0] = v; }");
    auto buf = std::make_shared<Buffer>(ast::Type::Float, 1, "a");
    Interpreter in(*mod, types);
    in.call("f", {buf, num(0.1)});
    EXPECT_EQ(buf->load(0), static_cast<double>(0.1f));
}

TEST(Interp, BuiltinCalls) {
    auto [mod, types] = parse_and_check(
        "double f(double x) { return exp(log(x)) + fmax(1.0, 2.0); }");
    Interpreter in(*mod, types);
    EXPECT_NEAR(in.call("f", {num(5.0)}).as_double(), 7.0, 1e-12);
}

TEST(Interp, ShortCircuitEvaluation) {
    // Division by zero on the rhs must not execute when lhs decides.
    auto [mod, types] = parse_and_check(R"(
bool f(int a) { return a > 0 || 1 / a > 0; }
)");
    Interpreter in(*mod, types);
    EXPECT_TRUE(in.call("f", {integer(3)}).as_bool());
    EXPECT_THROW((void)in.call("f", {integer(0)}), InterpError);
}

TEST(Interp, MaxStepsAborts) {
    auto [mod, types] = parse_and_check(R"(
void f() {
    int x = 0;
    while (0 < 1) {
        x = x + 1;
    }
}
)");
    InterpOptions opt;
    opt.max_steps = 10'000;
    Interpreter in(*mod, types, opt);
    EXPECT_THROW(in.call("f", {}), InterpError);
}

// ------------------------------------------------------------ profiling ----

TEST(Profile, LoopTripCounts) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 4; j++) {
            a[i] = a[i] + 1.0;
        }
    }
}
)");
    auto buf = std::make_shared<Buffer>(ast::Type::Double, 8, "a");
    auto run = run_function(*mod, types, "f", {integer(8), buf});

    auto loops = ast::collect<ast::For>(*mod);
    ASSERT_EQ(loops.size(), 2u);
    const auto* outer = run.profile.loop(loops[0]->id);
    const auto* inner = run.profile.loop(loops[1]->id);
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->entries, 1);
    EXPECT_EQ(outer->trips, 8);
    EXPECT_EQ(inner->entries, 8);
    EXPECT_EQ(inner->trips, 32);
    EXPECT_DOUBLE_EQ(inner->avg_trip_count(), 4.0);
}

TEST(Profile, CostAttributionNestsProperly) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] = a[i] + a[j];
        }
    }
}
)");
    auto buf = std::make_shared<Buffer>(ast::Type::Double, 16, "a");
    auto run = run_function(*mod, types, "f", {integer(16), buf});

    auto loops = ast::collect<ast::For>(*mod);
    ASSERT_EQ(loops.size(), 3u);
    const auto* first = run.profile.loop(loops[0]->id);
    const auto* second = run.profile.loop(loops[1]->id);
    // The O(n^2) nest must dominate the O(n) loop.
    EXPECT_GT(second->cost, 4.0 * first->cost);
    // Total cost covers both loops.
    EXPECT_GE(run.profile.total_cost, first->cost + second->cost);
}

TEST(Profile, FlopsCountedOnlyForFloatingOps) {
    auto [mod, types] = parse_and_check(R"(
void f(int n, double* a, int* idx) {
    for (int i = 0; i < n; i++) {
        idx[i] = i * 2;
        a[i] = a[i] * 2.0;
    }
}
)");
    auto a = std::make_shared<Buffer>(ast::Type::Double, 8, "a");
    auto idx = std::make_shared<Buffer>(ast::Type::Int, 8, "idx");
    auto run = run_function(*mod, types, "f", {integer(8), a, idx});
    // Exactly one double multiply per iteration.
    EXPECT_DOUBLE_EQ(run.profile.total_flops, 8.0);
}

TEST(Profile, FocusFunctionDataInOut) {
    auto [mod, types] = parse_and_check(R"(
void kernel(int n, double* in, double* out) {
    for (int i = 0; i < n; i++) {
        out[i] = in[i] * 2.0;
    }
}

void run(int n, double* in, double* out) {
    kernel(n, in, out);
}
)");
    auto in_buf = std::make_shared<Buffer>(ast::Type::Double, 32, "in");
    auto out_buf = std::make_shared<Buffer>(ast::Type::Double, 32, "out");
    InterpOptions opt;
    opt.focus_function = "kernel";
    auto run = run_function(*mod, types, "run",
                            {integer(32), in_buf, out_buf}, opt);

    EXPECT_EQ(run.profile.focus.calls, 1);
    EXPECT_FALSE(run.profile.focus.args_alias);
    const auto* in_acc = run.profile.focus.buffer("in");
    const auto* out_acc = run.profile.focus.buffer("out");
    ASSERT_NE(in_acc, nullptr);
    ASSERT_NE(out_acc, nullptr);
    EXPECT_EQ(in_acc->bytes_in(), 32 * 8);
    EXPECT_EQ(in_acc->bytes_out(), 0);
    EXPECT_EQ(out_acc->bytes_out(), 32 * 8);
    EXPECT_EQ(run.profile.focus.bytes_in(), 32 * 8);
    EXPECT_EQ(run.profile.focus.bytes_out(), 32 * 8);
}

TEST(Profile, AliasDetection) {
    auto [mod, types] = parse_and_check(R"(
void kernel(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i];
    }
}

void run(int n, double* a) {
    kernel(n, a, a);
}
)");
    auto a = std::make_shared<Buffer>(ast::Type::Double, 8, "a");
    InterpOptions opt;
    opt.focus_function = "kernel";
    auto run = run_function(*mod, types, "run", {integer(8), a}, opt);
    EXPECT_TRUE(run.profile.focus.args_alias);
}

TEST(Profile, FocusCostIsSubsetOfTotal) {
    auto [mod, types] = parse_and_check(R"(
void kernel(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 3.0;
    }
}

void run(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = i * 1.0;
    }
    kernel(n, a);
}
)");
    auto a = std::make_shared<Buffer>(ast::Type::Double, 64, "a");
    InterpOptions opt;
    opt.focus_function = "kernel";
    auto run = run_function(*mod, types, "run", {integer(64), a}, opt);
    EXPECT_GT(run.profile.focus.cost, 0.0);
    EXPECT_LT(run.profile.focus.cost, run.profile.total_cost);
}

} // namespace
} // namespace psaflow
