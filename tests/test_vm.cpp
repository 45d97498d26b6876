// The bytecode VM (interp/bytecode.hpp + interp/vm.hpp) against its
// contract: the lowering is stable (snapshot tests per opcode class) and
// execution is observationally identical to the tree-walking reference —
// bit-equal results, buffer contents, error strings, serialized execution
// profiles and cancellation behaviour. The five paper applications and the
// full flow engine are covered end-to-end; the `interp:vm` fuzz oracle
// (test_fuzz_regression) extends the same check to generated programs.
#include <cmath>
#include <functional>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "analysis/profile_cache.hpp"
#include "ast/walk.hpp"
#include "core/psaflow.hpp"
#include "interp/bytecode.hpp"
#include "interp/interpreter.hpp"
#include "interp/vm.hpp"
#include "meta/query.hpp"
#include "support/cancel.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::interp;
using psaflow::testing::parse_and_check;

const char* to_string(Engine engine) {
    return engine == Engine::Tree ? "tree" : "vm";
}

std::string disasm(std::string_view src) {
    auto [mod, types] = parse_and_check(std::string(src));
    return bc::disassemble(bc::compile(*mod, types));
}

// ----------------------------------------------------------------------
// Lowering snapshots, one per opcode class. These pin the exact register
// assignment, charge placement and operand encoding; an intentional
// lowering change updates them alongside a fresh differential sweep.
// `pre=N` marks N standalone charges folded into an instruction.
// ----------------------------------------------------------------------

TEST(VmLowering, ArithmeticAndReturn) {
    // `a * x + y` is the fused sequence MulD+AddD: the head prints as its
    // members, and the AddD stays in the stream with its own operands.
    EXPECT_EQ(disasm(R"(double axpy(double a, double x, double y) {
    return a * x + y;
}
)"),
              "func axpy(a: double, x: double, y: double) ret=double "
              "sregs=5 bregs=0\n"
              "   0: MulD+AddD s3, s0, s1\n"
              "   1: AddD s4, s3, s2\n"
              "   2: Ret s4\n"
              "   3: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, IntegerDivisionAndModulo) {
    EXPECT_EQ(disasm(R"(int quot(int a, int b) {
    return a / b - a % b;
}
)"),
              "func quot(a: int, b: int) ret=int sregs=5 bregs=0\n"
              "   0: DivI s2, s0, s1\n"
              "   1: ModI s3, s0, s1\n"
              "   2: SubI s4, s2, s3\n"
              "   3: Ret s4\n"
              "   4: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, ForLoopWithCompoundAssign) {
    // LoopEnter/LoopHead/LoopTrip/LoopExit bracket the body. The body
    // cannot write `i`, so the loop variable is its own head snapshot, and
    // the literal step 1 needs no StepCheck. With no snapshot and a limit
    // that needs no code, one LoopNext closes the loop; the assignment's
    // charge folds into its CAddI.
    EXPECT_EQ(disasm(R"(int sum_to(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += i;
    }
    return s;
}
)"),
              "func sum_to(n: int) ret=int sregs=6 bregs=0\n"
              "  const int s4 = 0\n"
              "  const int s5 = 1\n"
              "   0: Mov s1, s4\n"
              "   1: ChargeAssign\n"
              "   2: LoopEnter L0\n"
              "   3: Mov s2, s4\n"
              "   4: LoopHead s2, s0, @8\n"
              "   5: LoopTrip L0\n"
              "   6: CAddI s1, s1, s2 pre=1\n"
              "   7: LoopNext s2, s0, s5, @6\n"
              "   8: LoopExit\n"
              "   9: Ret s1\n"
              "  10: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, ShortCircuitAndOr) {
    // `&&`/`||` charge one comparison before the left operand and skip the
    // right one entirely when short-circuiting, mirroring the tree.
    EXPECT_EQ(disasm(R"(bool gate(bool p, bool q, double x) {
    return p && (x < 1.0 || !q);
}
)"),
              "func gate(p: bool, q: bool, x: double) ret=bool "
              "sregs=8 bregs=0\n"
              "  const double s7 = 1\n"
              "   0: ChargeCmp\n"
              "   1: LoadB s3, false\n"
              "   2: JmpF s0, @9\n"
              "   3: LtD s5, s2, s7 pre=1\n"
              "   4: LoadB s4, true\n"
              "   5: JmpT s5, @8\n"
              "   6: NotB s6, s1\n"
              "   7: Mov s4, s6\n"
              "   8: Mov s3, s4\n"
              "   9: Ret s3\n"
              "  10: Trap \"value is not bool\"\n");
}

TEST(VmLowering, WhileAndIfElse) {
    EXPECT_EQ(disasm(R"(int halve(int n) {
    int steps = 0;
    while (n > 1) {
        if (n % 2 == 0) {
            n = n / 2;
        } else {
            n = n - 1;
        }
        steps = steps + 1;
    }
    return steps;
}
)"),
              "func halve(n: int) ret=int sregs=7 bregs=0\n"
              "  const int s4 = 0\n"
              "  const int s5 = 1\n"
              "  const int s6 = 2\n"
              "   0: Mov s1, s4\n"
              "   1: ChargeAssign\n"
              "   2: GtI s2, s0, s5 pre=1\n"
              "   3: JmpF s2, @12\n"
              "   4: ModI s2, s0, s6 pre=1\n"
              "   5: EqI s3, s2, s4\n"
              "   6: JmpF s3, @9\n"
              "   7: DivI s0, s0, s6 pre=1\n"
              "   8: Jmp @10\n"
              "   9: SubI s0, s0, s5 pre=1\n"
              "  10: AddI s1, s1, s5 pre=1\n"
              "  11: Jmp @2\n"
              "  12: Ret s1\n"
              "  13: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, FloatRoundingAndConversions) {
    // Binary float ops compute in float (MulF); float compound assignment
    // computes in double and rounds once (CDivF) — two distinct rounding
    // behaviours the tree walker has, preserved verbatim.
    EXPECT_EQ(disasm(R"(float mix(float a, int k, double d) {
    float t = a * 0.5f;
    t /= d + k;
    return t;
}
)"),
              "func mix(a: float, k: int, d: double) ret=float "
              "sregs=7 bregs=0\n"
              "  const double s6 = 0.5\n"
              "   0: MulF s3, s0, s6\n"
              "   1: I2D s5, s1\n"
              "   2: AddD s4, s2, s5 pre=2\n"
              "   3: CDivF s3, s3, s4\n"
              "   4: Ret s3\n"
              "   5: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, LocalArraysAndElementOps) {
    EXPECT_EQ(disasm(R"(double tally(int n, double* buf) {
    double acc[4];
    for (int i = 0; i < 4; i++) {
        acc[i] = 0.0;
    }
    for (int i = 0; i < n; i++) {
        acc[i % 4] += buf[i % n];
    }
    return acc[0] + acc[1] + acc[2] + acc[3];
}
)"),
              "func tally(n: int, buf: double*) ret=double sregs=15 bregs=2\n"
              "  const int s9 = 4\n"
              "  const int s10 = 0\n"
              "  const double s11 = 0\n"
              "  const int s12 = 1\n"
              "  const int s13 = 2\n"
              "  const int s14 = 3\n"
              "   0: NewBuf b1, s9, double 'acc'\n"
              "   1: ChargeAssign\n"
              "   2: LoopEnter L0\n"
              "   3: Mov s1, s10\n"
              "   4: LoopHead s1, s9, @9\n"
              "   5: LoopTrip L0\n"
              "   6: ChargeAssign\n"
              "   7: StoreElem b1[s1], s11\n"
              "   8: LoopNext s1, s9, s12, @6\n"
              "   9: LoopExit\n"
              "  10: LoopEnter L1\n"
              "  11: Mov s1, s10\n"
              "  12: LoopHead s1, s0, @21\n"
              "  13: LoopTrip L1\n"
              "  14: ModI s2, s1, s0 pre=1\n"
              "  15: LoadElemD s3, b0[s2]\n"
              "  16: ModI s4, s1, s9\n"
              "  17: LoadElemD s5, b1[s4]\n"
              "  18: CAddD s5, s5, s3\n"
              "  19: StoreElem b1[s4], s5\n"
              "  20: LoopNext s1, s0, s12, @14\n"
              "  21: LoopExit\n"
              "  22: LoadElemD s2, b1[s10]\n"
              "  23: LoadElemD s3, b1[s12]\n"
              "  24: AddD s4, s2, s3\n"
              "  25: LoadElemD s5, b1[s13]\n"
              "  26: AddD s6, s4, s5\n"
              "  27: LoadElemD s7, b1[s14]\n"
              "  28: AddD s8, s6, s7\n"
              "  29: Ret s8\n"
              "  30: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, BuiltinAndUserCalls) {
    EXPECT_EQ(disasm(R"(double norm(double x, double y) {
    return sqrt(x * x + y * y);
}

double run(int n, double* b) {
    return norm(b[0], n) + fmin(b[1], 2.0);
}
)"),
              "func norm(x: double, y: double) ret=double sregs=6 bregs=0\n"
              "   0: MulD s2, s0, s0\n"
              "   1: MulD+AddD s3, s1, s1\n"
              "   2: AddD s4, s2, s3\n"
              "   3: CallBuiltin s5, sqrt(s4)\n"
              "   4: Ret s5\n"
              "   5: Trap \"value is not numeric\"\n"
              "\n"
              "func run(n: int, b: double*) ret=double sregs=10 bregs=1\n"
              "  const int s7 = 0\n"
              "  const int s8 = 1\n"
              "  const double s9 = 2\n"
              "   0: LoadElemD s1, b0[s7]\n"
              "   1: I2D s2, s0\n"
              "   2: CallUser s3, norm(s1, s2)\n"
              "   3: LoadElemD s4, b0[s8]\n"
              "   4: CallBuiltin s5, fmin(s4, s9)\n"
              "   5: AddD s6, s3, s5\n"
              "   6: Ret s6\n"
              "   7: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, LoopVariableWrittenInBodyKeepsSnapshot) {
    // The body writes `i`, so the head snapshot (s3) is kept: LoopHead and
    // IncI read the snapshot, and the body's write is overwritten by the
    // step update exactly like the tree walker's local `i`.
    EXPECT_EQ(disasm(R"(int skip(int n) {
    int hits = 0;
    for (int i = 0; i < n; i++) {
        hits += 1;
        i = i + 1;
    }
    return hits;
}
)"),
              "func skip(n: int) ret=int sregs=7 bregs=0\n"
              "  const int s5 = 0\n"
              "  const int s6 = 1\n"
              "   0: Mov s1, s5\n"
              "   1: ChargeAssign\n"
              "   2: LoopEnter L0\n"
              "   3: Mov s2, s5\n"
              "   4: Mov s3, s2\n"
              "   5: LoopHead s3, s0, @11\n"
              "   6: LoopTrip L0\n"
              "   7: CAddI s1, s1, s6 pre=1\n"
              "   8: AddI s2, s2, s6 pre=1\n"
              "   9: IncI s2, s3, s6\n"
              "  10: Jmp @4\n"
              "  11: LoopExit\n"
              "  12: Ret s1\n"
              "  13: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, LiteralsUseConstantRegisters) {
    // Literals live in constant registers after the temps: the loop bound
    // (s8), the call argument and compound operand (s9: the int literal 2
    // converts to the double 2 at compile time) and the initialisers. A
    // non-literal step keeps its StepCheck.
    EXPECT_EQ(disasm(R"(double scale(double* v, int s) {
    double acc = 0.0;
    for (int i = 0; i < 8; i += s) {
        acc += fmax(v[i], 2.0) * 2;
    }
    return acc;
}
)"),
              "func scale(v: double*, s: int) ret=double sregs=10 bregs=1\n"
              "  const double s6 = 0\n"
              "  const int s7 = 0\n"
              "  const int s8 = 8\n"
              "  const double s9 = 2\n"
              "   0: Mov s1, s6\n"
              "   1: ChargeAssign\n"
              "   2: LoopEnter L0\n"
              "   3: Mov s2, s7\n"
              "   4: LoopHead s2, s8, @12\n"
              "   5: LoopTrip L0\n"
              "   6: LoadElemD s3, b0[s2] pre=1\n"
              "   7: CallBuiltin+MulD s4, fmax(s3, s9)\n"
              "   8: MulD s5, s4, s9\n"
              "   9: CAddD s1, s1, s5\n"
              "  10: StepCheck s0, \"3:5: for-loop step must be positive\"\n"
              "  11: LoopNext s2, s8, s0, @6\n"
              "  12: LoopExit\n"
              "  13: Ret s1\n"
              "  14: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, FoldsStopAtJumpTargets) {
    // A then-block ending in a declaration: its ChargeAssign (4) stays
    // standalone, since the path that skips the block lands on the next
    // statement. That statement's own charge folds into its AddI (5),
    // which the JmpF now targets.
    EXPECT_EQ(disasm(R"(int f(int a) {
    int r = 0;
    if (a > 0) {
        int t = a;
    }
    r = r + a;
    return r;
}
)"),
              "func f(a: int) ret=int sregs=5 bregs=0\n"
              "  const int s4 = 0\n"
              "   0: Mov s1, s4\n"
              "   1: GtI s3, s0, s4 pre=2\n"
              "   2: JmpF s3, @5\n"
              "   3: Mov s2, s0\n"
              "   4: ChargeAssign\n"
              "   5: AddI s1, s1, s0 pre=1\n"
              "   6: Ret s1\n"
              "   7: Trap \"value is not numeric\"\n");
    // An `&&` merge: the ChargeCmp (0) cannot pass the JmpF, which lands
    // on the Mov that merges both paths (4). The declaration's charge
    // after that Mov and the next statement's fold into its AddI (5).
    EXPECT_EQ(disasm(R"(int g(bool p, bool q, int n) {
    bool x = p && q;
    n = n + 1;
    return n;
}
)"),
              "func g(p: bool, q: bool, n: int) ret=int sregs=6 bregs=0\n"
              "  const int s5 = 1\n"
              "   0: ChargeCmp\n"
              "   1: LoadB s4, false\n"
              "   2: JmpF s0, @4\n"
              "   3: Mov s4, s1\n"
              "   4: Mov s3, s4\n"
              "   5: AddI s2, s2, s5 pre=2\n"
              "   6: Ret s2\n"
              "   7: Trap \"value is not numeric\"\n");
    // A while head: the declaration's ChargeAssign (1) stays before the
    // loop, and the head's ChargeCmp folds into LtI (2), which the
    // back-edge now targets.
    EXPECT_EQ(disasm(R"(int h(int n) {
    int s = 0;
    while (s < n) {
        s = s + 2;
    }
    return s;
}
)"),
              "func h(n: int) ret=int sregs=5 bregs=0\n"
              "  const int s3 = 0\n"
              "  const int s4 = 2\n"
              "   0: Mov s1, s3\n"
              "   1: ChargeAssign\n"
              "   2: LtI s2, s1, s0 pre=1\n"
              "   3: JmpF s2, @6\n"
              "   4: AddI s1, s1, s4 pre=1\n"
              "   5: Jmp @2\n"
              "   6: Ret s1\n"
              "   7: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, LoopNextOnlyWithoutSnapshotOrLimitCode) {
    // Loop 0 (limit `n`, body cannot write `i`) closes with LoopNext.
    // Loop 1's limit `n - 1` is code at the head, and loop 2's body writes
    // its variable (head snapshot): both keep IncI; Jmp back to the head.
    EXPECT_EQ(disasm(R"(int loops(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += i;
    }
    for (int j = 0; j < n - 1; j++) {
        s += j;
    }
    for (int k = 0; k < n; k++) {
        k = k + 1;
    }
    return s;
}
)"),
              "func loops(n: int) ret=int sregs=9 bregs=0\n"
              "  const int s7 = 0\n"
              "  const int s8 = 1\n"
              "   0: Mov s1, s7\n"
              "   1: ChargeAssign\n"
              "   2: LoopEnter L0\n"
              "   3: Mov s2, s7\n"
              "   4: LoopHead s2, s0, @8\n"
              "   5: LoopTrip L0\n"
              "   6: CAddI s1, s1, s2 pre=1\n"
              "   7: LoopNext s2, s0, s8, @6\n"
              "   8: LoopExit\n"
              "   9: LoopEnter L1\n"
              "  10: Mov s3, s7\n"
              "  11: SubI s5, s0, s8\n"
              "  12: LoopHead s3, s5, @17\n"
              "  13: LoopTrip L1\n"
              "  14: CAddI s1, s1, s3 pre=1\n"
              "  15: IncI s3, s3, s8\n"
              "  16: Jmp @11\n"
              "  17: LoopExit\n"
              "  18: LoopEnter L2\n"
              "  19: Mov s4, s7\n"
              "  20: Mov s5, s4\n"
              "  21: LoopHead s5, s0, @26\n"
              "  22: LoopTrip L2\n"
              "  23: AddI s4, s4, s8 pre=1\n"
              "  24: IncI s4, s5, s8\n"
              "  25: Jmp @20\n"
              "  26: LoopExit\n"
              "  27: Ret s1\n"
              "  28: Trap \"value is not numeric\"\n");
}

// ----------------------------------------------------------------------
// Dispatch edge cases: the VM and the tree walker must agree on every
// result, every error and the exact error wording.
// ----------------------------------------------------------------------

struct EngineOutcome {
    bool threw = false;
    std::string error;
    Value result = Value::void_value();
};

EngineOutcome run_engine(std::string_view src, const std::string& fn,
                         const std::vector<Arg>& args, Engine engine,
                         InterpOptions options = {}) {
    auto [mod, types] = parse_and_check(std::string(src));
    options.engine = engine;
    EngineOutcome out;
    try {
        out.result = run_function(*mod, types, fn, args, options).result;
    } catch (const Error& e) { // InterpError, or a builtin's domain error
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

/// Both engines produce this exact error.
void expect_both_throw(std::string_view src, const std::string& fn,
                       const std::vector<Arg>& args,
                       const std::string& message) {
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        const auto out = run_engine(src, fn, args, engine);
        EXPECT_TRUE(out.threw) << to_string(engine) << ": no error";
        EXPECT_EQ(out.error, message) << to_string(engine);
    }
}

/// Both engines produce this exact (bit-compared) result.
void expect_both_return(std::string_view src, const std::string& fn,
                        const std::vector<Arg>& args, const Value& want) {
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        const auto out = run_engine(src, fn, args, engine);
        ASSERT_FALSE(out.threw) << to_string(engine) << ": " << out.error;
        ASSERT_EQ(out.result.type(), want.type()) << to_string(engine);
        if (want.type() == ast::Type::Double ||
            want.type() == ast::Type::Float) {
            double a = out.result.as_double();
            double b = want.as_double();
            EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                << to_string(engine) << ": " << a << " != " << b;
        } else if (want.type() == ast::Type::Int) {
            EXPECT_EQ(out.result.as_int(), want.as_int())
                << to_string(engine);
        } else if (want.type() == ast::Type::Bool) {
            EXPECT_EQ(out.result.as_bool(), want.as_bool())
                << to_string(engine);
        }
    }
}

TEST(VmDispatch, DivisionByZero) {
    expect_both_throw("int f(int a) { return a / 0; }", "f",
                      {Value::of_int(7)}, "integer division by zero");
    expect_both_throw("int f(int a) { return a % 0; }", "f",
                      {Value::of_int(7)}, "integer modulo by zero");
}

TEST(VmDispatch, OutOfBoundsIndex) {
    const char* src = R"(double f(int i) {
    double b[4];
    return b[i];
}
)";
    expect_both_throw(src, "f", {Value::of_int(9)},
                      "buffer 'b' index 9 out of bounds [0, 4)");
    expect_both_throw(src, "f", {Value::of_int(-1)},
                      "buffer 'b' index -1 out of bounds [0, 4)");
}

TEST(VmDispatch, NegativeArraySize) {
    expect_both_throw(R"(double f(int n) {
    double b[n];
    return 0.0;
}
)",
                      "f", {Value::of_int(-3)},
                      "negative array size for 'b'");
}

TEST(VmDispatch, NonPositiveLoopStep) {
    expect_both_throw(R"(int f(int s) {
    int acc = 0;
    for (int i = 0; i < 10; i += s) {
        acc = acc + 1;
    }
    return acc;
}
)",
                      "f", {Value::of_int(0)},
                      "3:5: for-loop step must be positive");
}

TEST(VmDispatch, MaxStepsAbort) {
    InterpOptions options;
    options.max_steps = 1000;
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        const auto out = run_engine(R"(int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
    return acc;
}
)",
                                    "f", {Value::of_int(1000000)}, engine,
                                    options);
        EXPECT_TRUE(out.threw) << to_string(engine);
        EXPECT_EQ(out.error,
                  "execution exceeded max_steps (runaway loop?)")
            << to_string(engine);
    }
}

TEST(VmDispatch, EmptyAndZeroTripLoops) {
    expect_both_return(R"(int f(int n) {
    int acc = 7;
    for (int i = 0; i < 0; i++) {
        acc = 0;
    }
    for (int i = n; i < n; i++) {
        acc = 0;
    }
    for (int i = 0; i < n; i++) {
    }
    return acc;
}
)",
                       "f", {Value::of_int(5)}, Value::of_int(7));
}

TEST(VmDispatch, DeepNestingAndTruncation) {
    expect_both_return(R"(int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 3; j++) {
            for (int k = 0; k < 2; k++) {
                for (int l = 0; l < 2; l++) {
                    acc += (i * 7 - n) / (j + 2) - (i - j) % (k + l + 1);
                }
            }
        }
    }
    return acc;
}
)",
                       "f", {Value::of_int(9)}, [] {
                           long long acc = 0;
                           const long long n = 9;
                           for (long long i = 0; i < n; ++i)
                               for (long long j = 0; j < 3; ++j)
                                   for (long long k = 0; k < 2; ++k)
                                       for (long long l = 0; l < 2; ++l)
                                           acc += (i * 7 - n) / (j + 2) -
                                                  (i - j) % (k + l + 1);
                           return Value::of_int(acc);
                       }());
}

TEST(VmDispatch, FloatCompoundRoundsOnceThroughDouble) {
    // Binary float arithmetic rounds each op; compound float assignment
    // computes in double and rounds once. Verify the VM reproduces the
    // tree walker bit-for-bit on a value where the two differ from a
    // naive all-double evaluation.
    const char* src = R"(float f(float a, float b) {
    float t = a;
    t *= b;
    return t + a * b;
}
)";
    const auto tree = run_engine(src, "f",
                                 {Value::of_float(1.1), Value::of_float(3.7)},
                                 Engine::Tree);
    ASSERT_FALSE(tree.threw) << tree.error;
    expect_both_return(src, "f",
                       {Value::of_float(1.1), Value::of_float(3.7)},
                       tree.result);
}

// ---- lowering paths that skip bookkeeping instructions ----------------

TEST(VmDispatch, LoopVariableWrittenInBodyStillSteppedFromHead) {
    // Each body writes `i`; the step update must still start from the
    // value read at the loop head.
    expect_both_return(R"(int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc += i;
        i = i * 3 + 5;
    }
    for (int i = 0; i < n; i++) {
        for (int i = 0; i < 2; i++) {
            acc += 100;
        }
        acc += i;
    }
    for (int j = 0; j < n; j += 2) {
        int j = 1;
        acc += j;
    }
    return acc;
}
)",
                       "f", {Value::of_int(10)},
                       Value::of_int(45 + (2000 + 20) + 5));
}

TEST(VmDispatch, LiteralNonPositiveStepsStillThrow) {
    for (const char* step : {"0", "-1", "-(2)"}) {
        SCOPED_TRACE(step);
        expect_both_throw(std::string(R"(int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i += )") +
                              step + R"() {
        acc += 1;
    }
    return acc;
}
)",
                          "f", {Value::of_int(10)},
                          "3:5: for-loop step must be positive");
    }
}

TEST(VmDispatch, NonLiteralStep) {
    const char* src = R"(int f(int n, int s) {
    int acc = 0;
    for (int i = 0; i < n; i += s) {
        acc += i;
    }
    for (int i = 1; i < n; i += n / 4) {
        acc = acc * 2 + i;
    }
    return acc;
}
)";
    expect_both_return(src, "f", {Value::of_int(20), Value::of_int(3)},
                       [] {
                           long long acc = 0;
                           for (long long i = 0; i < 20; i += 3) acc += i;
                           for (long long i = 1; i < 20; i += 5)
                               acc = acc * 2 + i;
                           return Value::of_int(acc);
                       }());
    expect_both_throw(src, "f", {Value::of_int(20), Value::of_int(0)},
                      "3:5: for-loop step must be positive");
}

TEST(VmDispatch, ShortCircuitResultsAssignedToVariables) {
    const char* src = R"(int f(int a, int b) {
    bool p = a > 0 && b > 0;
    bool q = a > 5 || b > 5;
    bool r = false;
    r = p || q;
    p = p && !q;
    q = !r || b < a && q;
    int out = 0;
    if (p) {
        out = out + 1;
    }
    if (q) {
        out = out + 2;
    }
    if (r) {
        out = out + 4;
    }
    return out;
}
)";
    for (const int a : {-1, 1, 7}) {
        for (const int b : {-1, 1, 7}) {
            SCOPED_TRACE(std::to_string(a) + "," + std::to_string(b));
            bool p = a > 0 && b > 0;
            bool q = a > 5 || b > 5;
            const bool r = p || q;
            p = p && !q;
            q = !r || (b < a && q);
            expect_both_return(src, "f", {Value::of_int(a), Value::of_int(b)},
                               Value::of_int((p ? 1 : 0) + (q ? 2 : 0) +
                                             (r ? 4 : 0)));
        }
    }
}

TEST(VmDispatch, OneLiteralAsBoundCompoundOperandAndCallArgument) {
    const char* src = R"(double f(double x) {
    double acc = 0.0;
    for (int i = 0; i < 3; i++) {
        acc += 3;
        acc = acc * fmax(x, 3);
        acc -= 3.0;
    }
    return acc;
}
)";
    for (const double x : {1.5, 4.25}) {
        double acc = 0.0;
        for (int i = 0; i < 3; ++i) {
            acc += 3;
            acc = acc * std::fmax(x, 3);
            acc -= 3.0;
        }
        expect_both_return(src, "f", {Value::of_double(x)},
                           Value::of_double(acc));
    }
}

TEST(VmDispatch, BuiltinDomainErrors) {
    expect_both_throw("double f(double x) { return sqrt(x); }", "f",
                      {Value::of_double(-1.0)}, "sqrt of negative value");
    expect_both_throw("float f(float x) { return sqrtf(x); }", "f",
                      {Value::of_float(-1.0)}, "sqrtf of negative value");
    expect_both_throw("double f(double x) { return log(x); }", "f",
                      {Value::of_double(0.0)}, "log of non-positive value");
    expect_both_throw("float f(float x) { return logf(x); }", "f",
                      {Value::of_float(0.0)}, "logf of non-positive value");
    expect_both_throw("double f() { return sqrt(-1.0); }", "f", {},
                      "sqrt of negative value");
}

TEST(VmDispatch, PointerParamCallsInsideALoop) {
    expect_both_return(R"(void axpy(double* y, double* x, double a, int n) {
    for (int i = 0; i < n; i++) {
        y[i] += a * x[i];
    }
}

double f(int reps) {
    double x[8];
    double y[8];
    for (int i = 0; i < 8; i++) {
        x[i] = i;
        y[i] = 1.0;
    }
    for (int k = 0; k < reps; k++) {
        axpy(y, x, 0.5, 8);
        axpy(x, y, 0.25, 4);
    }
    return y[7] + x[3];
}
)",
                       "f", {Value::of_int(5)}, [] {
                           double x[8];
                           double y[8];
                           for (int i = 0; i < 8; ++i) {
                               x[i] = i;
                               y[i] = 1.0;
                           }
                           for (int k = 0; k < 5; ++k) {
                               for (int i = 0; i < 8; ++i) y[i] += 0.5 * x[i];
                               for (int i = 0; i < 4; ++i)
                                   x[i] += 0.25 * y[i];
                           }
                           return Value::of_double(y[7] + x[3]);
                       }());
}

// ----------------------------------------------------------------------
// Cooperative cancellation: the VM polls the ambient CancelToken on the
// same step cadence as the tree walker.
// ----------------------------------------------------------------------

TEST(VmCancellation, CancelledTokenUnwindsMidLoop) {
    const char* src = R"(int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
    return acc;
}
)";
    auto [mod, types] = parse_and_check(src);
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        CancelToken token;
        token.cancel();
        CancelScope scope(&token);
        InterpOptions options;
        options.engine = engine;
        // ~400k steps: far past the first poll point, nowhere near done.
        EXPECT_THROW((void)run_function(*mod, types, "spin",
                                        {Value::of_int(100000)}, options),
                     CancelledError)
            << to_string(engine);
    }
}

TEST(VmCancellation, UncancelledTokenRunsToCompletion) {
    const char* src = R"(int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
    return acc;
}
)";
    auto [mod, types] = parse_and_check(src);
    CancelToken token;
    CancelScope scope(&token);
    InterpOptions options;
    options.engine = Engine::Vm;
    EXPECT_EQ(run_function(*mod, types, "spin", {Value::of_int(100000)},
                           options)
                  .result.as_int(),
              4999950000LL);
}

// ----------------------------------------------------------------------
// Step-exact charging: folded charges, LoopNext and the VM's batched
// charge state must stop a run at the same step as the tree walker, with
// the same partial profile, for every max_steps limit and at every poll.
// ----------------------------------------------------------------------

/// What a run leaves behind: its error (empty when it completed) and its
/// serialized, possibly partial, profile.
struct LimitedRun {
    std::string error;
    std::string profile;
};

template <typename EngineT> // Interpreter or Vm
LimitedRun run_limited(ast::Module& mod, const sema::TypeInfo& types,
                       const std::string& fn, const std::vector<Arg>& args,
                       InterpOptions options) {
    std::vector<ast::Node::Id> loop_order;
    for (const auto* loop : meta::for_loops(mod))
        loop_order.push_back(loop->id);
    options.profile = true;
    EngineT engine(mod, types, options);
    LimitedRun out;
    try {
        (void)engine.call(fn, args);
    } catch (const Error& e) {
        out.error = e.what();
    }
    out.profile =
        analysis::serialize_profile_payload(engine.profile(), loop_order);
    return out;
}

const std::string kMaxStepsError =
    "execution exceeded max_steps (runaway loop?)";

/// How a run ended once max_steps no longer cut it short.
struct SweepEnd {
    long long steps = -1; ///< the smallest limit it got that far under
    std::string error;    ///< empty when it returned
};

/// For every max_steps limit from 1 up to the first one under which `fn`
/// runs to its end (it returns, or fails with an error of its own), both
/// engines stop with the same error and partial profile. With
/// `region_focus` the profiles include every outermost loop's region.
SweepEnd sweep_max_steps(std::string_view src, const std::string& fn,
                         const std::function<std::vector<Arg>()>& args,
                         const std::string& focus = {},
                         bool region_focus = false) {
    auto [mod, types] = parse_and_check(std::string(src));
    for (long long limit = 1; limit <= 100000; ++limit) {
        InterpOptions options;
        options.max_steps = limit;
        options.focus_function = focus;
        options.region_focus = region_focus;
        const LimitedRun tree =
            run_limited<Interpreter>(*mod, types, fn, args(), options);
        const LimitedRun vm = run_limited<Vm>(*mod, types, fn, args(), options);
        EXPECT_EQ(tree.error, vm.error) << "max_steps " << limit;
        EXPECT_EQ(tree.profile, vm.profile) << "max_steps " << limit;
        if (tree.error != vm.error || tree.profile != vm.profile) return {};
        if (tree.error != kMaxStepsError) return {limit, tree.error};
    }
    ADD_FAILURE() << "no limit up to 100000 let '" << fn << "' complete";
    return {};
}

/// A program whose lowering contains every fused sequence, each run once
/// per loop iteration; `fused` takes v (at least 2n + 2 elements) and n.
const char* kFusedProgram = R"(double fused(double* v, int n) {
    double acc = 0.0;
    double a = 1.5;
    double b = 0.25;
    for (int i = 0; i < n; i++) {
        double x = v[i * 2 + 1];
        int k = i * 2 + 1;
        double y = v[i + 1];
        double z = v[i] - a;
        double p = x * a + b;
        double q = x / a - b;
        double r = (x + a) / b;
        double s = (x - a) * b;
        double e = exp(x - a);
        double w = fabs(y) * b;
        acc += x * a;
        acc = acc + y + z + p + q + r + s + e + w + k;
    }
    return acc;
}
)";

/// The fused ops' names as the disassembler prints them.
std::vector<std::string> fused_op_names() {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < bc::kOpCount; ++i) {
        const auto op = static_cast<bc::Op>(i);
        if (!bc::fused_members(op).empty()) names.emplace_back(bc::to_string(op));
    }
    return names;
}

std::vector<Arg> fused_args(int n) {
    auto buf = std::make_shared<Buffer>(ast::Type::Double, 2 * n + 2, "v");
    for (int i = 0; i < 2 * n + 2; ++i) buf->store(i, 0.5 * i - 1.0);
    return {buf, Value::of_int(n)};
}

TEST(VmCharging, FusedProgramContainsEveryFusedSequence) {
    const std::string listing = disasm(kFusedProgram);
    const std::vector<std::string> names = fused_op_names();
    EXPECT_EQ(names.size(), 11u);
    for (const std::string& name : names)
        EXPECT_NE(listing.find(" " + name + " "), std::string::npos)
            << name << "\n"
            << listing;
}

TEST(VmCharging, MaxStepsSweepStopsAtTheSameStepWithTheSameProfile) {
    const char* src = R"(double kernel(double* v, int n) {
    double acc = 0.0;
    int last = 0;
    for (int i = 0; i < n; i++) {
        int k = i;
        acc += sqrt(v[i] + 1.0) * 2.0;
        if (acc > 4.0 && k > 1) {
            acc = acc - 1.5;
        }
        last = k;
    }
    return acc + last;
}

double sweep(double* v, int n) {
    double total = 0.0;
    int j = 3;
    for (int r = 0; r < 2; r++) {
        total = total + kernel(v, n);
        v[r] = total;
    }
    while (j > 0) {
        j = j - 1;
    }
    return total;
}
)";
    // The program exercises what this sweep is about, including a charge
    // folded into a LoopNext (`last = k`).
    const std::string listing = disasm(src);
    // The builtin call heads the fused CallBuiltin+MulD.
    for (const char* feature : {" pre=", "CallUser ", "CallBuiltin+MulD "})
        EXPECT_NE(listing.find(feature), std::string::npos) << feature;
    const auto loop_next = listing.find("LoopNext ");
    ASSERT_NE(loop_next, std::string::npos) << listing;
    EXPECT_NE(listing.substr(loop_next, listing.find('\n', loop_next) -
                                            loop_next)
                  .find(" pre=1"),
              std::string::npos)
        << listing;

    const auto args = [] {
        auto buf = std::make_shared<Buffer>(ast::Type::Double, 6, "v");
        for (int i = 0; i < 6; ++i) buf->store(i, 0.5 * i);
        return std::vector<Arg>{buf, Value::of_int(6)};
    };
    const SweepEnd end = sweep_max_steps(src, "sweep", args, "kernel");
    EXPECT_EQ(end.error, "");
    EXPECT_GT(end.steps, 200);
    // The same stops under region focus: regions open and close at the
    // loops and at `kernel`'s early exits without moving a charge.
    EXPECT_EQ(sweep_max_steps(src, "sweep", args, "kernel",
                              /*region_focus=*/true)
                  .steps,
              end.steps);
}

TEST(VmCharging, MaxStepsSweepOverFusedSequences) {
    // Every fused run charges its members one by one, so a limit that
    // lands inside a run stops at the same member as the tree walker.
    for (const bool regions : {false, true}) {
        SCOPED_TRACE(regions ? "region focus" : "plain");
        const SweepEnd end = sweep_max_steps(
            kFusedProgram, "fused", [] { return fused_args(3); }, "",
            regions);
        EXPECT_EQ(end.error, "");
        EXPECT_GT(end.steps, 100);
    }
}

TEST(VmCharging, MaxStepsSweepAcrossJumpTargets) {
    // The three programs of VmLowering.FoldsStopAtJumpTargets, on both
    // sides of each branch.
    const char* if_decl = R"(int f(int a) {
    int r = 0;
    if (a > 0) {
        int t = a;
    }
    r = r + a;
    return r;
}
)";
    const char* and_merge = R"(int g(bool p, bool q, int n) {
    bool x = p && q;
    n = n + 1;
    return n;
}
)";
    const char* while_head = R"(int h(int n) {
    int s = 0;
    while (s < n) {
        s = s + 2;
    }
    return s;
}
)";
    for (const int a : {0, 1}) {
        SCOPED_TRACE(a);
        EXPECT_GT(sweep_max_steps(if_decl, "f",
                                  [&] {
                                      return std::vector<Arg>{
                                          Value::of_int(a)};
                                  })
                      .steps,
                  0);
        EXPECT_GT(sweep_max_steps(and_merge, "g",
                                  [&] {
                                      return std::vector<Arg>{
                                          Value::of_bool(a == 1),
                                          Value::of_bool(true),
                                          Value::of_int(3)};
                                  })
                      .steps,
                  0);
        EXPECT_GT(sweep_max_steps(while_head, "h",
                                  [&] {
                                      return std::vector<Arg>{
                                          Value::of_int(5 * a)};
                                  })
                      .steps,
                  0);
    }
}

TEST(VmCharging, FaultsAfterFoldedChargesKeepThoseCharges) {
    // Each fault comes right after folded charges: in its receiver (the
    // DivI, the element load, the builtin) or just after a store, which
    // charges after its bounds check and so takes no folds. Up to the
    // fault, and at every limit before it, the engines agree.
    struct Case {
        const char* src;
        std::vector<Arg> args;
        const char* error;
    };
    const Case cases[] = {
        {R"(int f(int a) {
    int t = a;
    int q = 0;
    q = t / a;
    return q;
}
)",
         {Value::of_int(0)}, "integer division by zero"},
        {R"(double f(int i) {
    double b[4];
    double s = 0.0;
    s = b[i];
    return s;
}
)",
         {Value::of_int(9)}, "buffer 'b' index 9 out of bounds [0, 4)"},
        {R"(double f(int i) {
    double b[4];
    double x = 1.0;
    b[i] = x;
    return b[0];
}
)",
         {Value::of_int(-1)}, "buffer 'b' index -1 out of bounds [0, 4)"},
        {R"(double f(double x) {
    double y = x;
    y = sqrt(x);
    return y;
}
)",
         {Value::of_double(-1.0)}, "sqrt of negative value"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.src);
        const SweepEnd end =
            sweep_max_steps(c.src, "f", [&] { return c.args; });
        EXPECT_EQ(end.error, c.error);
    }
}

TEST(VmCharging, CancellationPollsLandOnTheTreeWalkersSteps) {
    // Each iteration charges 1 + 2 folded steps in one AddI (the two
    // assignments' charges), so the VM's counter crosses most multiples
    // of the poll period instead of landing on them. A cancelled token
    // must still stop both engines at the same poll, with the same
    // partial profile.
    const char* src = R"(int spin(int n) {
    int acc = 0;
    int t = 0;
    for (int i = 0; i < n; i++) {
        t = i;
        acc = acc + t;
    }
    return acc;
}
)";
    EXPECT_NE(disasm(src).find("AddI s1, s1, s2 pre=2"), std::string::npos)
        << disasm(src);
    CancelToken token;
    token.cancel();
    CancelScope scope(&token);
    {
        auto [mod, types] = parse_and_check(src);
        const std::vector<Arg> args{Value::of_int(1000000)};
        const LimitedRun tree = run_limited<Interpreter>(
            *mod, types, "spin", args, InterpOptions{});
        const LimitedRun vm =
            run_limited<Vm>(*mod, types, "spin", args, InterpOptions{});
        EXPECT_EQ(tree.error, "request cancelled");
        EXPECT_EQ(tree.error, vm.error);
        EXPECT_EQ(tree.profile, vm.profile);
    }
    // The fused runs (every one of them, see
    // FusedProgramContainsEveryFusedSequence) charge member by member, so
    // the poll lands on the same step inside a run.
    auto [mod, types] = parse_and_check(kFusedProgram);
    for (const bool regions : {false, true}) {
        SCOPED_TRACE(regions ? "region focus" : "plain");
        InterpOptions options;
        options.region_focus = regions;
        const LimitedRun tree = run_limited<Interpreter>(
            *mod, types, "fused", fused_args(20000), options);
        const LimitedRun vm =
            run_limited<Vm>(*mod, types, "fused", fused_args(20000), options);
        EXPECT_EQ(tree.error, "request cancelled");
        EXPECT_EQ(tree.error, vm.error);
        EXPECT_EQ(tree.profile, vm.profile);
    }
}

// ----------------------------------------------------------------------
// Profile equivalence on the five paper applications: identical results,
// buffers and serialized execution profiles (totals, per-loop stats,
// focus summaries — everything the design flow consumes).
// ----------------------------------------------------------------------

/// Name of the function containing the first for-loop (the flow's default
/// profiling focus for these apps).
std::string first_loop_function(ast::Module& module) {
    for (const auto& fn : module.functions) {
        bool has_loop = false;
        ast::walk(static_cast<ast::Node&>(*fn), [&](ast::Node& n) {
            if (n.kind() == ast::NodeKind::For) has_loop = true;
            return true;
        });
        if (has_loop) return fn->name;
    }
    return module.functions.front()->name;
}

struct AppCapture {
    std::string profile_payload;
    std::vector<std::vector<double>> buffers;
    long long result_bits = 0;
    bool has_result = false;
};

AppCapture run_app(const apps::Application& app, Engine engine) {
    auto [mod, types] = parse_and_check(app.source, app.name);
    const auto loops = meta::for_loops(*mod);
    std::vector<ast::Node::Id> loop_order;
    for (const auto* loop : loops) loop_order.push_back(loop->id);

    InterpOptions options;
    options.engine = engine;
    options.profile = true;
    options.focus_function = first_loop_function(*mod);

    const auto args = app.workload.make_args(app.workload.profile_scale);
    const auto run =
        run_function(*mod, types, app.workload.entry, args, options);

    AppCapture cap;
    cap.profile_payload =
        analysis::serialize_profile_payload(run.profile, loop_order);
    for (const auto& arg : args)
        if (const auto* buf = std::get_if<BufferPtr>(&arg))
            cap.buffers.push_back((*buf)->raw());
    if (run.result.type() == ast::Type::Double ||
        run.result.type() == ast::Type::Float) {
        double d = run.result.as_double();
        std::memcpy(&cap.result_bits, &d, sizeof d);
        cap.has_result = true;
    } else if (run.result.type() == ast::Type::Int) {
        cap.result_bits = run.result.as_int();
        cap.has_result = true;
    }
    return cap;
}

TEST(VmApps, ProfilesMatchTreeWalkerOnAllFiveApps) {
    for (const auto* app : apps::all_applications()) {
        SCOPED_TRACE(app->name);
        const auto tree = run_app(*app, Engine::Tree);
        const auto vm = run_app(*app, Engine::Vm);
        EXPECT_EQ(tree.profile_payload, vm.profile_payload);
        EXPECT_EQ(tree.has_result, vm.has_result);
        EXPECT_EQ(tree.result_bits, vm.result_bits);
        ASSERT_EQ(tree.buffers.size(), vm.buffers.size());
        for (std::size_t i = 0; i < tree.buffers.size(); ++i) {
            ASSERT_EQ(tree.buffers[i].size(), vm.buffers[i].size());
            EXPECT_EQ(std::memcmp(tree.buffers[i].data(),
                                  vm.buffers[i].data(),
                                  tree.buffers[i].size() * sizeof(double)),
                      0)
                << app->name << " buffer " << i << " differs";
        }
    }
}

// ----------------------------------------------------------------------
// Flow-level byte-identity: the full design flow (designs, logs and
// predictions) for two apps in both modes, at jobs=1 and jobs=3, must equal
// snapshots recorded under the tree walker (the flow has no engine switch,
// so the snapshot is the tree-walker side of the comparison). This is the
// end-to-end form of the engine-agreement criterion; the per-run checks
// above localise any failure. After a deliberate flow change, refresh with
//
//   PSAFLOW_UPDATE_GOLDEN=1 ./build/tests/test_vm --gtest_filter='VmFlow.*'
//   git diff tests/golden/   # review the flow diff, then commit it
//
// A refresh records the VM's output, so land it only with the run-level
// tree-vs-VM checks above passing.
// ----------------------------------------------------------------------

std::string flow_summary(const flow::FlowResult& result) {
    std::ostringstream os;
    os.precision(17);
    os << "reference_seconds=" << result.reference_seconds << "\n";
    for (const auto& line : result.log) os << "| " << line << "\n";
    for (const auto& d : result.designs) {
        os << "design " << d.name() << " speedup=" << d.speedup
           << " loc_delta=" << d.loc_delta
           << " synthesizable=" << d.synthesizable << "\n";
        os << d.source << "\n";
        for (const auto& line : d.log) os << "| " << line << "\n";
    }
    return os.str();
}

// Runs `app`'s flow in both modes through the VM at jobs=1 and jobs=3 and
// checks each against its tree-walker snapshot.
void expect_flow_matches_tree_walker(const apps::Application& app) {
    for (const flow::Mode mode :
         {flow::Mode::Informed, flow::Mode::Uninformed}) {
        const std::string name =
            "flow-" + app.name + "-" +
            (mode == flow::Mode::Informed ? "informed" : "uninformed");
        std::vector<std::string> summaries;
        for (const int jobs : {1, 3}) {
            RunOptions options;
            options.mode = mode;
            flow::SessionOptions session_options;
            session_options.jobs = jobs;
            flow::FlowSession session(session_options);
            summaries.push_back(
                flow_summary(psaflow::compile(session, app, options)));
        }
        EXPECT_FALSE(summaries[0].empty()) << name;
        EXPECT_EQ(summaries[0], summaries[1]) << name << " at jobs=3";
        psaflow::testing::expect_golden(
            std::string(PSAFLOW_GOLDEN_DIR) + "/" + name + ".golden",
            summaries[0]);
    }
}

TEST(VmFlow, DesignsAreByteIdenticalAcrossEnginesAndJobs) {
    expect_flow_matches_tree_walker(apps::kmeans());
}

TEST(VmFlow, SecondAppAgreesAcrossEngines) {
    expect_flow_matches_tree_walker(apps::bezier());
}

} // namespace
} // namespace psaflow
