// Bytecode for the profiling interpreter.
//
// The tree walker in interpreter.cpp pays virtual dispatch, a per-variable
// hash lookup and a Value box for every node it touches; on a cold compile
// that constant factor dominated the whole flow (26-79x cold vs warm before
// the VM). This compiler lowers a checked HLC module once into a compact
// register-based instruction stream whose dispatch loop (vm.hpp) performs
// the *same sequence of charges in the same order* as the tree walker —
// profiling hooks (loop trip counters, work estimates, memory footprints,
// aliasing probes) are explicit instructions, so profiles, results and
// error strings come out bit-identical while the walking overhead is gone.
//
// Lowering invariants relied on throughout (all guaranteed by sema::check):
//   - one declared type per name per function, so every scalar gets a fixed
//     register and every array a fixed buffer slot;
//   - for-loop init/limit/step and subscripts are statically Int;
//   - conditions and logical operands are strictly Bool;
//   - call arity and argument kinds match the callee's parameters.
//
// Charge-free bookkeeping is kept out of the instruction stream wherever
// the tree walker's behaviour allows it:
//   - Frame layout: named variables, then expression temps, then read-only
//     constant registers. Every literal (and every literal conversion the
//     tree walker would make at runtime, such as `x * 2` on a double `x`)
//     is a constant register whose value the VM copies in when it pushes
//     the frame, so no instruction loads a literal.
//   - Destination forwarding: an assignment or declaration whose value is
//     produced by a pure instruction (arithmetic, compare, conversion,
//     element load, call) writes the variable directly instead of going
//     through a temp and a Mov. The Mov/LoadB pair that merges the two
//     paths of `&&`/`||` is never retargeted.
//   - A for-loop whose step is a positive integer literal emits no
//     StepCheck.
//   - A for-loop keeps a head snapshot register (the tree walker's local
//     `i`) only when its body can write the loop variable: an assignment
//     to it, or a nested for-loop or declaration of the same name.
//   - A for-loop with no head snapshot whose limit needs no code closes
//     with one LoopNext instead of `IncI; Jmp` back to `LoopHead;
//     LoopTrip`.
//   - A standalone charge (ChargeAssign, ChargeCmp) folds into the next
//     instruction that charges before doing anything observable, as that
//     instruction's Insn::pre count, when only charge-free, non-throwing
//     data movement lies between them and no jump lands in between. The
//     VM charges the folded ones first, one step and one cost unit each,
//     so the sequence of charges is unchanged.
//   - After folding, the first instruction of each run of the hottest
//     adjacent op sequences (fused_members) becomes a fused op, provided
//     no jump lands on a later member. The members stay in the stream with
//     their own operands and `pre`; the VM dispatches the run once and
//     executes each member's body, charge included, in order.
//   - Compiled for region focus, every outermost loop is bracketed by
//     RegionEnter/RegionExit. Neither charges nor folds, so the charges
//     are those of the plain lowering.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/nodes.hpp"
#include "sema/builtins.hpp"
#include "sema/type_check.hpp"

namespace psaflow::interp::bc {

/// Instruction set. Naming: I/D/F suffixes are the *static* operand types
/// (Int, Double, Float); Float values live in double registers, rounded to
/// float precision exactly where the tree walker rounds (Value::of_float).
/// "charge-free" ops mirror tree-walker work that never called charge().
/// Literals need no load op: they live in constant registers (see
/// CompiledFunction::consts).
enum class Op : std::uint8_t {
    // ---- charge-free data movement ----
    LoadB,  ///< S[a].b = (b != 0): the short-circuit result of `&&`/`||`
    Mov,    ///< S[a] = S[b] (raw copy)
    I2D,    ///< S[a].d = double(S[b].i)
    D2I,    ///< S[a].i = (long long)S[b].d   (truncate toward zero)
    D2F,    ///< S[a].d = double(float(S[b].d))
    I2F,    ///< S[a].d = double(float(double(S[b].i)))
    // ---- charge-free control flow ----
    Jmp,  ///< pc = a
    JmpF, ///< if (!S[a].b) pc = b
    JmpT, ///< if (S[a].b) pc = b
    // ---- standalone charges (tree walker charges before evaluating) ----
    ChargeCmp,    ///< charge(kCmpCost): If/While heads, And/Or
    ChargeAssign, ///< charge(kAssignCost): Assign and VarDecl statements
    // ---- int arithmetic (charge kIntOpCost) ----
    AddI, ///< charge(1); S[a].i = S[b].i + S[c].i
    SubI,
    MulI,
    DivI, ///< charge(1); throws on S[c].i == 0
    ModI, ///< charge(1); throws on S[c].i == 0
    NegI, ///< charge(1); S[a].i = -S[b].i
    IncI, ///< S[a].i = S[b].i + S[c].i, charge-free (loop var update)
    // ---- double arithmetic (charge w,w with w = Div ? 4 : 1) ----
    AddD,
    SubD,
    MulD,
    DivD,
    NegD,
    // ---- float arithmetic: compute in float, store rounded ----
    AddF, ///< charge(1,1); S[a].d = double(float(S[b].d) + float(S[c].d))
    SubF,
    MulF,
    DivF, ///< charge(4,4)
    NegF, ///< charge(1,1); S[a].d = double(float(-S[b].d))
    // ---- compound-assign arithmetic (the tree walker's `combined`:
    //      Float targets compute in double, then round once) ----
    CAddI, ///< charge(1,0); S[a].i = S[b].i + S[c].i
    CSubI,
    CMulI,
    CDivI, ///< charge(4,0); throws on S[c].i == 0
    CAddD, ///< charge(1,1)
    CSubD,
    CMulD,
    CDivD, ///< charge(4,4)
    CAddF, ///< charge(1,1); S[a].d = double(float(S[b].d + S[c].d))
    CSubF,
    CMulF,
    CDivF, ///< charge(4,4)
    // ---- comparisons (charge kCmpCost) ----
    LtI, ///< charge(1); S[a].b = S[b].i < S[c].i
    LeI,
    GtI,
    GeI,
    EqI,
    NeI,
    LtD, ///< charge(1); S[a].b = S[b].d < S[c].d
    LeD,
    GtD,
    GeD,
    EqD,
    NeD,
    NotB, ///< charge(1); S[a].b = !S[b].b
    // ---- for loops ----
    // S[a] of LoopHead and S[b] of IncI is the loop variable itself, or its
    // head snapshot when the body can write the variable.
    LoopEnter, ///< profiling: ++entries of loop_pool[a], push active loop
    LoopHead,  ///< charge(kCmpCost); if (S[a].i >= S[b].i) pc = c
    LoopTrip,  ///< profiling: ++trips of loop_pool[a]; charge(kLoopIterCost)
    /// The back-edge of a loop with no head snapshot and a code-free limit:
    /// S[a].i += S[c].i; charge(kCmpCost); if (S[a].i < S[b].i) { ++trips;
    /// charge(kLoopIterCost); pc = this pc - back }, else fall through to
    /// the LoopExit.
    LoopNext,
    LoopExit,  ///< profiling: pop active loop
    StepCheck, ///< if (S[a].i <= 0) throw InterpError(name_pool[b]); not
               ///< emitted for a positive integer-literal step
    // ---- buffers ----
    NewBuf,    ///< B[a] = fresh Buffer(buf_pool[c], size S[b].i)
    // An element load charges (kMemCost, element bytes) first, so it takes
    // folded `pre` charges; then the focus function's read bookkeeping,
    // then the bounds-checked load. A store bounds-checks and writes before
    // its charge, like the tree walker, so it never takes a `pre`.
    LoadElemI, ///< charge; focus read; S[a].i = (long long)B[b]->load(S[c].i)
    LoadElemF, ///< charge; focus read; S[a].d = round_f(B[b]->load(S[c].i))
    LoadElemD, ///< charge; focus read; S[a].d = B[b]->load(S[c].i)
    StoreElem, ///< B[a]->store(S[b].i, S[c].d); charge; focus write
    // ---- calls and termination ----
    CallBuiltin, ///< S[a] = builtin_pool[b](args at arg_pool[c..])
    CallUser,    ///< call functions[b] with args at arg_pool[c..], result -> a
    Ret,         ///< return S[a] (already converted to the return type)
    RetVoid,     ///< return from a void function
    Trap,        ///< throw InterpError(name_pool[a])
    // ---- focus regions (region focus only) ----
    RegionEnter, ///< profiling: open region_pool[a]; just before LoopEnter
    RegionExit,  ///< profiling: close region_pool[a]; just after LoopExit
    // ---- fused sequences: the head of a run of the listed members ----
    MulI_AddI_LoadElemD,
    MulI_AddI,
    AddI_LoadElemD,
    MulD_AddD,
    DivD_SubD,
    AddD_DivD,
    MulD_CAddD,
    LoadElemD_SubD,
    SubD_MulD,
    SubD_CallBuiltin,
    CallBuiltin_MulD,
};

inline constexpr std::size_t kOpCount =
    static_cast<std::size_t>(Op::CallBuiltin_MulD) + 1;

/// The member ops of fused op `op`, in stream order (the first is the
/// op the fused one stands in for); empty for an op that is not fused.
/// The set was chosen from the executed-pair census of the ten cold
/// compiles (CMake option PSAFLOW_OP_COUNTER, EXPERIMENTS.md).
[[nodiscard]] std::span<const Op> fused_members(Op op);

[[nodiscard]] const char* to_string(Op op);

/// One instruction. Operand meaning is per-op (see Op); `a` is usually the
/// destination scalar register, `b`/`c` sources or pool indices. `pre` and
/// `back` live in what would otherwise be padding.
struct Insn {
    Op op;
    /// Standalone charges folded into this instruction: it charges `pre`
    /// steps of one cost unit each before its own charge. Only ops that
    /// charge before anything observable carry one.
    std::uint8_t pre = 0;
    std::uint16_t back = 0; ///< LoopNext: distance back to the loop body
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
};

static_assert(sizeof(Insn) == 16);

/// One scalar register. Float values are stored in `d` already rounded to
/// float precision (the lowering rounds wherever Value::of_float did), so
/// the union needs no type tag: the instruction encodes which member it
/// reads.
union Sreg {
    long long i;
    double d;
    bool b;
};

static_assert(sizeof(Sreg) == 8);

/// The value of one read-only constant register. `type` is Int, Double
/// (also for Float literals, which are stored pre-rounded) or Bool.
struct Constant {
    ast::Type type = ast::Type::Int;
    Sreg value{};
};

/// Element type and declared name of a local array (NewBuf operand).
struct BufDecl {
    ast::Type elem = ast::Type::Double;
    std::string name;
};

/// Compile-time view of one parameter, in declaration order. Scalar params
/// bind to scalar registers 0..n in scalar-param order; pointer params bind
/// to buffer slots 0..m in pointer-param order.
struct ParamSpec {
    bool is_pointer = false;
    ast::Type elem = ast::Type::Double;
    std::string name;
};

/// One focus region (RegionEnter/RegionExit operand): an outermost loop
/// and the buffer slots of its free arrays, which bind at entry as the
/// pointer parameters of a kernel extracted from the loop would.
struct RegionDecl {
    ast::Node::Id loop = 0;
    std::vector<std::int32_t> bufs;  ///< buffer slots, parameter order
    std::vector<std::string> names;  ///< the arrays' names, same order
};

struct CompiledFunction {
    std::string name;
    ast::Type ret = ast::Type::Void;
    std::vector<ParamSpec> params;
    /// Scalar frame size: named vars, then temps, then constants.
    std::uint32_t n_sregs = 0;
    std::uint32_t n_bregs = 0; ///< buffer frame size
    bool is_focus = false;     ///< profile focus function (baked at compile)
    /// Values of the constant registers, which are the last consts.size()
    /// sregs of the frame. The VM copies them in when it pushes the frame;
    /// no instruction writes them.
    std::vector<Constant> consts;
    std::vector<Insn> code;
};

/// A whole lowered module. Pools are shared across functions; the loop pool
/// maps compact loop indices back to AST node ids so profiles stay keyed
/// exactly like the tree walker's.
struct CompiledModule {
    std::vector<CompiledFunction> functions;
    std::unordered_map<std::string, std::uint32_t> fn_index;
    std::vector<std::string> name_pool; ///< pre-composed error messages
    std::vector<const sema::BuiltinInfo*> builtin_pool;
    std::vector<ast::Node::Id> loop_pool; ///< For node ids, compile order
    std::vector<BufDecl> buf_pool;
    std::vector<std::int32_t> arg_pool; ///< flattened call argument registers
    std::vector<RegionDecl> region_pool; ///< region focus only


    [[nodiscard]] const CompiledFunction* find(const std::string& name) const {
        auto it = fn_index.find(name);
        return it == fn_index.end() ? nullptr : &functions[it->second];
    }
};

/// Lower every function of a checked module. `focus_function` is baked into
/// the CompiledFunction::is_focus flags, and `region_focus` brackets every
/// outermost loop with RegionEnter/RegionExit (compilation is O(AST) and
/// cheap next to any profiled run, so the VM compiles per run like the
/// tree walker constructs its Impl).
[[nodiscard]] CompiledModule compile(const ast::Module& module,
                                     const sema::TypeInfo& types,
                                     const std::string& focus_function = {},
                                     bool region_focus = false);

/// Human-readable listing of one function / the whole module, used by the
/// lowering snapshot tests. Loop and region operands print as pool indices
/// (node ids are process-unique and would not be stable snapshot
/// material); a fused op prints as its members joined by '+', with the
/// first member's operands.
[[nodiscard]] std::string disassemble(const CompiledModule& module,
                                      const CompiledFunction& fn);
[[nodiscard]] std::string disassemble(const CompiledModule& module);

} // namespace psaflow::interp::bc
