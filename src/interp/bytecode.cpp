#include "interp/bytecode.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>

#include "ast/walk.hpp"
#include "interp/focus.hpp"
#include "support/error.hpp"

namespace psaflow::interp::bc {

namespace {

using namespace psaflow::ast;

// The lowering mirrors interpreter.cpp statement by statement: every charge
// the tree walker makes has a corresponding charging instruction at the same
// point of the evaluation order, every rounding (Value::of_float, Buffer
// rounding stores) a corresponding F-typed op, and every runtime error an
// identically worded throw. Divergence here is a bug the interp:vm fuzz
// oracle is designed to catch.

struct Reg {
    std::int32_t idx = -1;
    Type type = Type::Void;
};

struct ModuleCompiler {
    ModuleCompiler(const Module& m, const sema::TypeInfo& t, std::string f,
                   bool r)
        : module(m), types(t), focus(std::move(f)), region_focus(r) {}

    const Module& module;
    const sema::TypeInfo& types;
    const std::string focus;
    const bool region_focus;
    CompiledModule out;

    std::unordered_map<std::string, std::int32_t> name_ids;
    std::unordered_map<const sema::BuiltinInfo*, std::int32_t> builtin_ids;
    std::unordered_map<std::string, std::int32_t> buf_ids;

    std::int32_t intern_name(const std::string& s) {
        auto [it, fresh] = name_ids.try_emplace(
            s, static_cast<std::int32_t>(out.name_pool.size()));
        if (fresh) out.name_pool.push_back(s);
        return it->second;
    }

    std::int32_t intern_builtin(const sema::BuiltinInfo* b) {
        auto [it, fresh] = builtin_ids.try_emplace(
            b, static_cast<std::int32_t>(out.builtin_pool.size()));
        if (fresh) out.builtin_pool.push_back(b);
        return it->second;
    }

    std::int32_t intern_loop(Node::Id id) {
        out.loop_pool.push_back(id);
        return static_cast<std::int32_t>(out.loop_pool.size() - 1);
    }

    std::int32_t intern_buf(Type elem, const std::string& name) {
        const std::string key = to_string(elem) + std::string("|") + name;
        auto [it, fresh] = buf_ids.try_emplace(
            key, static_cast<std::int32_t>(out.buf_pool.size()));
        if (fresh) out.buf_pool.push_back(BufDecl{elem, name});
        return it->second;
    }

    std::int32_t arg_list(const std::vector<std::int32_t>& regs) {
        const auto base = static_cast<std::int32_t>(out.arg_pool.size());
        out.arg_pool.insert(out.arg_pool.end(), regs.begin(), regs.end());
        return base;
    }
};

/// Whether `body` can write scalar `var`: an assignment to it, or a nested
/// for-loop or declaration of the same name (one slot per name per
/// function, so those overwrite it too).
bool body_writes(const Block& body, const std::string& var) {
    bool found = false;
    walk(static_cast<const Node&>(body), [&](const Node& n) {
        if (const auto* a = dyn_cast<Assign>(&n)) {
            const auto* id = dyn_cast<Ident>(a->target.get());
            if (id != nullptr && id->name == var) found = true;
        } else if (const auto* f = dyn_cast<For>(&n)) {
            if (f->var == var) found = true;
        } else if (const auto* d = dyn_cast<VarDecl>(&n)) {
            if (d->name == var) found = true;
        }
        return !found;
    });
    return found;
}

/// Ops that only read their sources and write S[a]: the instruction that
/// produced an assigned value may be retargeted to the variable itself.
/// Mov and LoadB are not among them: `&&`/`||` write their result temp on
/// two paths (LoadB, then Mov after the jump), and the Mov is the one
/// instruction an expression's jump lands after.
bool is_pure_producer(Op op) {
    switch (op) {
        case Op::I2D:
        case Op::D2I:
        case Op::D2F:
        case Op::I2F:
        case Op::AddI:
        case Op::SubI:
        case Op::MulI:
        case Op::DivI:
        case Op::ModI:
        case Op::NegI:
        case Op::AddD:
        case Op::SubD:
        case Op::MulD:
        case Op::DivD:
        case Op::NegD:
        case Op::AddF:
        case Op::SubF:
        case Op::MulF:
        case Op::DivF:
        case Op::NegF:
        case Op::LtI:
        case Op::LeI:
        case Op::GtI:
        case Op::GeI:
        case Op::EqI:
        case Op::NeI:
        case Op::LtD:
        case Op::LeD:
        case Op::GtD:
        case Op::GeD:
        case Op::EqD:
        case Op::NeD:
        case Op::NotB:
        case Op::LoadElemI:
        case Op::LoadElemF:
        case Op::LoadElemD:
        case Op::CallBuiltin:
        case Op::CallUser: return true;
        default: return false;
    }
}

double round_f(double v) {
    return static_cast<double>(static_cast<float>(v));
}

/// Ops that charge before anything observable (a register write, a throw,
/// a profile update), so a standalone charge folded into one keeps its
/// place in the charge order. LoopNext's increment only writes the loop
/// variable, which nothing reads before its compare; the operand reads of
/// the element loads and calls are not observable.
bool receives_pre(Op op) {
    switch (op) {
        case Op::IncI: return false; // the one charge-free op in the range
        case Op::ChargeCmp:
        case Op::ChargeAssign:
        case Op::LoopHead:
        case Op::LoopNext:
        case Op::LoadElemI:
        case Op::LoadElemF:
        case Op::LoadElemD:
        case Op::CallBuiltin:
        case Op::CallUser: return true;
        default: return op >= Op::AddI && op <= Op::NotB; // arith, compares
    }
}

/// Charge-free ops that cannot throw or jump: a charge may move past them,
/// since only registers they write differ and nothing reads those before
/// the charge is made.
bool charge_free_data_op(Op op) {
    switch (op) {
        case Op::LoadB:
        case Op::Mov:
        case Op::I2D:
        case Op::D2I:
        case Op::D2F:
        case Op::I2F:
        case Op::IncI: return true;
        default: return false;
    }
}

/// The operand of `in` that holds an absolute jump target, if any.
std::int32_t* jump_target(Insn& in) {
    switch (in.op) {
        case Op::Jmp: return &in.a;
        case Op::JmpF:
        case Op::JmpT: return &in.b;
        case Op::LoopHead: return &in.c;
        default: return nullptr;
    }
}

/// The fused sequences, longest first so a run takes the longest match.
struct FusedSeq {
    Op fused;
    std::uint8_t size;
    Op members[3];
};

constexpr FusedSeq kFusedSeqs[] = {
    {Op::MulI_AddI_LoadElemD, 3, {Op::MulI, Op::AddI, Op::LoadElemD}},
    {Op::MulI_AddI, 2, {Op::MulI, Op::AddI}},
    {Op::AddI_LoadElemD, 2, {Op::AddI, Op::LoadElemD}},
    {Op::MulD_AddD, 2, {Op::MulD, Op::AddD}},
    {Op::DivD_SubD, 2, {Op::DivD, Op::SubD}},
    {Op::AddD_DivD, 2, {Op::AddD, Op::DivD}},
    {Op::MulD_CAddD, 2, {Op::MulD, Op::CAddD}},
    {Op::LoadElemD_SubD, 2, {Op::LoadElemD, Op::SubD}},
    {Op::SubD_MulD, 2, {Op::SubD, Op::MulD}},
    {Op::SubD_CallBuiltin, 2, {Op::SubD, Op::CallBuiltin}},
    {Op::CallBuiltin_MulD, 2, {Op::CallBuiltin, Op::MulD}},
};

/// A LoopNext at `at` whose body starts at `body`.
struct BackEdge {
    std::int32_t at;
    std::int32_t body;
};

/// Removes each standalone charge that can fold into a later instruction
/// (see bytecode.hpp) and remaps every jump target. A fold never reaches
/// past a jump target, so every path through the receiver came through
/// the charge; a charge that is itself a target hands the target on to
/// the next instruction kept.
void fold_charges(std::vector<Insn>& code,
                  const std::vector<BackEdge>& back_edges) {
    const std::size_t n = code.size();
    std::vector<bool> target(n + 1, false);
    for (Insn& in : code)
        if (const std::int32_t* t = jump_target(in))
            target[static_cast<std::size_t>(*t)] = true;
    for (const BackEdge& e : back_edges)
        target[static_cast<std::size_t>(e.body)] = true;

    std::vector<bool> keep(n, true);
    for (std::size_t i = 0; i < n; ++i) {
        if (code[i].op != Op::ChargeAssign && code[i].op != Op::ChargeCmp)
            continue;
        for (std::size_t j = i + 1; j < n && !target[j]; ++j) {
            if (receives_pre(code[j].op)) {
                const int pre = code[j].pre + 1 + code[i].pre;
                if (pre <= UINT8_MAX) {
                    code[j].pre = static_cast<std::uint8_t>(pre);
                    keep[i] = false;
                }
                break;
            }
            if (!charge_free_data_op(code[j].op)) break;
        }
    }

    // new_pc[k]: the position of the first kept instruction at or after k.
    std::vector<std::int32_t> new_pc(n + 1);
    std::int32_t kept = 0;
    for (std::size_t k = 0; k <= n; ++k) {
        new_pc[k] = kept;
        if (k < n && keep[k]) ++kept;
    }
    for (Insn& in : code)
        if (std::int32_t* t = jump_target(in))
            *t = new_pc[static_cast<std::size_t>(*t)];
    for (const BackEdge& e : back_edges) {
        Insn& in = code[static_cast<std::size_t>(e.at)];
        in.back = static_cast<std::uint16_t>(
            new_pc[static_cast<std::size_t>(e.at)] -
            new_pc[static_cast<std::size_t>(e.body)]);
    }
    std::size_t out = 0;
    for (std::size_t k = 0; k < n; ++k)
        if (keep[k]) code[out++] = code[k];
    code.resize(out);
}

/// Turns the first instruction of each run that matches a fused sequence
/// into the fused op, scanning left to right. A run matches only when no
/// jump and no LoopNext back-edge lands on a member after its first, so
/// every path into the run enters at its head and executes all of it.
void fuse_sequences(std::vector<Insn>& code) {
    const std::size_t n = code.size();
    std::vector<bool> target(n + 1, false);
    for (std::size_t pc = 0; pc < n; ++pc) {
        if (const std::int32_t* t = jump_target(code[pc]))
            target[static_cast<std::size_t>(*t)] = true;
        if (code[pc].op == Op::LoopNext) target[pc - code[pc].back] = true;
    }
    for (std::size_t pc = 0; pc < n;) {
        std::size_t step = 1;
        for (const FusedSeq& seq : kFusedSeqs) {
            if (pc + seq.size > n) continue;
            bool match = true;
            for (std::size_t k = 0; k < seq.size && match; ++k)
                match = code[pc + k].op == seq.members[k] &&
                        (k == 0 || !target[pc + k]);
            if (!match) continue;
            code[pc].op = seq.fused;
            step = seq.size;
            break;
        }
        pc += step;
    }
}

class FnCompiler {
public:
    FnCompiler(ModuleCompiler& mc, const Function& fn) : mc_(mc), fn_(fn) {}

    CompiledFunction compile() {
        cf_.name = fn_.name;
        cf_.ret = fn_.ret;
        cf_.is_focus = !mc_.focus.empty() && fn_.name == mc_.focus;
        for (const auto& p : fn_.params)
            cf_.params.push_back(
                ParamSpec{p->type.is_pointer, p->type.elem, p->name});

        // Fixed registers for every named variable: scalar params take
        // sregs 0.. in scalar-param order, pointer params bregs 0.. in
        // pointer-param order, then locals in declaration order (one type
        // per name per function is a sema guarantee).
        std::int32_t n_bregs = 0;
        for (const auto& v : mc_.types.variables(fn_)) {
            if (v.type.is_pointer || v.is_array) {
                if (breg_of_.try_emplace(v.name, n_bregs).second) {
                    buf_elem_.emplace(v.name, v.type.elem);
                    ++n_bregs;
                }
            } else if (sreg_of_.try_emplace(v.name, next_reg_).second) {
                scalar_type_.emplace(v.name, v.type.elem);
                ++next_reg_;
            }
        }
        n_named_ = next_reg_;
        max_reg_ = next_reg_;
        const std::size_t arg_base = mc_.out.arg_pool.size();

        if (mc_.region_focus) {
            for (const RegionSpec& spec : focus_regions(fn_, mc_.types)) {
                RegionDecl decl;
                decl.loop = spec.loop->id;
                for (const std::string& name : spec.buffers) {
                    decl.bufs.push_back(breg(name));
                    decl.names.push_back(name);
                }
                region_of_.emplace(
                    decl.loop,
                    static_cast<std::int32_t>(mc_.out.region_pool.size()));
                mc_.out.region_pool.push_back(std::move(decl));
            }
        }

        emit_block(*fn_.body);
        // Falling off the end of a non-void function mirrors the tree
        // walker: Value::void_value().convert_to(ret) throws.
        emit_implicit_return();

        // Constant registers go after the temps, whose count is known only
        // now. Rewrite the placeholder operands (see constant()) in order
        // of first use, dropping constants nothing reads (an int literal
        // folded into a double one). -1, a void CallUser's destination, is
        // the only other negative operand.
        std::vector<std::int32_t*> refs;
        for (Insn& in : cf_.code)
            for (std::int32_t* r : {&in.a, &in.b, &in.c})
                if (*r <= kConstTag) refs.push_back(r);
        for (std::size_t k = arg_base; k < mc_.out.arg_pool.size(); ++k)
            if (mc_.out.arg_pool[k] <= kConstTag)
                refs.push_back(&mc_.out.arg_pool[k]);
        std::vector<std::int32_t> placed(cf_.consts.size(), -1);
        std::vector<Constant> used;
        for (std::int32_t* r : refs) {
            const auto k = static_cast<std::size_t>(kConstTag - *r);
            if (placed[k] < 0) {
                placed[k] = max_reg_ + static_cast<std::int32_t>(used.size());
                used.push_back(cf_.consts[k]);
            }
            *r = placed[k];
        }
        cf_.consts = std::move(used);

        cf_.n_sregs = static_cast<std::uint32_t>(max_reg_) +
                      static_cast<std::uint32_t>(cf_.consts.size());
        cf_.n_bregs = static_cast<std::uint32_t>(n_bregs);
        fold_charges(cf_.code, back_edges_);
        fuse_sequences(cf_.code);
        return std::move(cf_);
    }

private:
    /// Constant k is referred to as kConstTag - k until compile() knows
    /// where the constants go.
    static constexpr std::int32_t kConstTag = -2;

    ModuleCompiler& mc_;
    const Function& fn_;
    CompiledFunction cf_;
    std::unordered_map<std::string, std::int32_t> sreg_of_;
    std::unordered_map<std::string, std::int32_t> breg_of_;
    std::unordered_map<std::string, Type> scalar_type_;
    std::unordered_map<std::string, Type> buf_elem_;
    std::map<std::pair<Type, std::uint64_t>, std::int32_t> const_ids_;
    std::int32_t n_named_ = 0;
    std::int32_t next_reg_ = 0;
    std::int32_t max_reg_ = 0;
    std::vector<BackEdge> back_edges_;
    /// Loop node id -> region_pool index (region focus only).
    std::unordered_map<Node::Id, std::int32_t> region_of_;

    // ---- emission helpers --------------------------------------------

    std::int32_t here() const {
        return static_cast<std::int32_t>(cf_.code.size());
    }

    std::int32_t emit(Op op, std::int32_t a = 0, std::int32_t b = 0,
                      std::int32_t c = 0) {
        cf_.code.push_back(Insn{op, 0, 0, a, b, c});
        return here() - 1;
    }

    std::int32_t alloc() {
        const std::int32_t r = next_reg_++;
        max_reg_ = std::max(max_reg_, next_reg_);
        return r;
    }

    [[noreturn]] void internal(const std::string& what) const {
        throw Error("bytecode lowering: " + what + " in function '" +
                    fn_.name + "'");
    }

    std::int32_t sreg(const std::string& name) const {
        auto it = sreg_of_.find(name);
        if (it == sreg_of_.end()) internal("no scalar register for '" + name +
                                           "'");
        return it->second;
    }

    std::int32_t breg(const std::string& name) const {
        auto it = breg_of_.find(name);
        if (it == breg_of_.end()) internal("no buffer slot for '" + name +
                                           "'");
        return it->second;
    }

    // ---- constants -----------------------------------------------------

    /// The constant register holding `value`, shared by equal constants.
    /// `storage` is Int, Double or Bool; `type` is the Reg's static type
    /// (Float for a rounded single-precision value).
    Reg constant(Type storage, Sreg value, Type type) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        auto [it, fresh] = const_ids_.try_emplace(
            std::pair{storage, bits},
            static_cast<std::int32_t>(cf_.consts.size()));
        if (fresh) cf_.consts.push_back(Constant{storage, value});
        return Reg{kConstTag - it->second, type};
    }

    Reg int_constant(long long v) {
        Sreg r{};
        r.i = v;
        return constant(Type::Int, r, Type::Int);
    }

    Reg real_constant(double v, Type type) {
        Sreg r{};
        r.d = v;
        return constant(Type::Double, r, type);
    }

    const Constant* constant_of(Reg r) const {
        if (r.idx > kConstTag) return nullptr;
        return &cf_.consts[static_cast<std::size_t>(kConstTag - r.idx)];
    }

    /// A constant converted to Double or Float at compile time: the same
    /// I2D/I2F/D2F arithmetic the VM would do, done once. D2I is left to
    /// runtime (out-of-range truncation is not portable to fold).
    std::optional<Reg> fold(Reg src, Type want) {
        const Constant* k = constant_of(src);
        if (k == nullptr || k->type == Type::Bool) return std::nullopt;
        if (want != Type::Double && want != Type::Float) return std::nullopt;
        const double v = k->type == Type::Int
                             ? static_cast<double>(k->value.i)
                             : k->value.d;
        return real_constant(want == Type::Float ? round_f(v) : v, want);
    }

    // ---- conversions (all charge-free, mirroring Value::convert_to /
    //      as_double / as_int, which never charge) ----------------------

    /// A trap for the conversions convert_to makes impossible at runtime;
    /// sema rejects these programs, but the tree walker would throw, so a
    /// lowering that meets one emits the identical throw.
    Reg trap(const char* message) {
        emit(Op::Trap, mc_.intern_name(message));
        return Reg{alloc(), Type::Void};
    }

    /// Value as a double register (Value::as_double).
    Reg to_double(Reg src) {
        switch (src.type) {
            case Type::Int: {
                if (const auto k = fold(src, Type::Double)) return *k;
                const std::int32_t r = alloc();
                emit(Op::I2D, r, src.idx);
                return Reg{r, Type::Double};
            }
            case Type::Float: // stored widened; the value is already exact
                return Reg{src.idx, Type::Double};
            case Type::Double: return src;
            default: return trap("value is not numeric");
        }
    }

    /// Value as an int register (Value::as_int, truncating toward zero).
    Reg to_int(Reg src) {
        switch (src.type) {
            case Type::Int: return src;
            case Type::Float:
            case Type::Double: {
                const std::int32_t r = alloc();
                emit(Op::D2I, r, src.idx);
                return Reg{r, Type::Int};
            }
            default: return trap("value is not numeric");
        }
    }

    /// S[dst] = S[src]. When the instruction just emitted is a pure
    /// producer of the temp `src`, that instruction writes `dst` instead
    /// and no Mov is needed.
    void move_into(std::int32_t dst, std::int32_t src) {
        if (dst == src) return;
        if (src >= n_named_ && here() > 0) {
            Insn& last = cf_.code.back();
            if (last.a == src && is_pure_producer(last.op)) {
                last.a = dst;
                return;
            }
        }
        emit(Op::Mov, dst, src);
    }

    /// Store `src` converted to declared type `want` into scalar reg `dst`
    /// (Value::convert_to at assignment / declaration).
    void conv_into(std::int32_t dst, Reg src, Type want) {
        if (const auto k = fold(src, want)) {
            move_into(dst, k->idx);
            return;
        }
        switch (want) {
            case Type::Int:
                switch (src.type) {
                    case Type::Int: move_into(dst, src.idx); return;
                    case Type::Float:
                    case Type::Double: emit(Op::D2I, dst, src.idx); return;
                    default: trap("value is not numeric"); return;
                }
            case Type::Double:
                switch (src.type) {
                    case Type::Int: emit(Op::I2D, dst, src.idx); return;
                    case Type::Float:
                    case Type::Double: move_into(dst, src.idx); return;
                    default: trap("value is not numeric"); return;
                }
            case Type::Float:
                switch (src.type) {
                    case Type::Int: emit(Op::I2F, dst, src.idx); return;
                    case Type::Float: move_into(dst, src.idx); return;
                    case Type::Double: emit(Op::D2F, dst, src.idx); return;
                    default: trap("value is not numeric"); return;
                }
            case Type::Bool:
                if (src.type == Type::Bool) {
                    move_into(dst, src.idx);
                } else {
                    trap("value is not bool");
                }
                return;
            default: trap("cannot convert to void"); return;
        }
    }

    /// Register holding `src` converted to `want` (fresh unless no
    /// conversion or a compile-time one suffices).
    Reg conv(Reg src, Type want) {
        if (src.type == want) return src;
        if (want == Type::Double && src.type == Type::Float)
            return Reg{src.idx, Type::Double}; // representation unchanged
        if (const auto k = fold(src, want)) return *k;
        const std::int32_t r = alloc();
        conv_into(r, src, want);
        return Reg{r, want};
    }

    // ---- expressions --------------------------------------------------

    Type type_of(const Expr& e) const { return mc_.types.type_of(e); }

    Reg emit_expr(const Expr& e) {
        switch (e.kind()) {
            case NodeKind::IntLit:
                return int_constant(static_cast<const IntLit&>(e).value);
            case NodeKind::FloatLit: {
                const auto& lit = static_cast<const FloatLit&>(e);
                // Value::of_float rounds at construction.
                if (lit.single)
                    return real_constant(round_f(lit.value), Type::Float);
                return real_constant(lit.value, Type::Double);
            }
            case NodeKind::BoolLit: {
                Sreg r{};
                r.b = static_cast<const BoolLit&>(e).value;
                return constant(Type::Bool, r, Type::Bool);
            }
            case NodeKind::Ident: {
                const auto& id = static_cast<const Ident&>(e);
                auto it = sreg_of_.find(id.name);
                if (it == sreg_of_.end())
                    internal("array '" + id.name + "' read as a scalar");
                return Reg{it->second, scalar_type_.at(id.name)};
            }
            case NodeKind::Unary: return emit_unary(static_cast<const Unary&>(e));
            case NodeKind::Binary:
                return emit_binary(static_cast<const Binary&>(e));
            case NodeKind::Call: return emit_call(static_cast<const Call&>(e));
            case NodeKind::Index: {
                const auto& ix = static_cast<const Index&>(e);
                const auto& base = static_cast<const Ident&>(*ix.base);
                const Reg idx = to_int(emit_expr(*ix.index));
                return emit_load_elem(base.name, idx);
            }
            default: internal("unexpected expression node");
        }
    }

    Reg emit_load_elem(const std::string& buf_name, Reg idx) {
        const Type elem = buf_elem_.at(buf_name);
        const std::int32_t dst = alloc();
        const Op op = elem == Type::Int
                          ? Op::LoadElemI
                          : (elem == Type::Float ? Op::LoadElemF
                                                 : Op::LoadElemD);
        emit(op, dst, breg(buf_name), idx.idx);
        return Reg{dst, elem};
    }

    Reg emit_unary(const Unary& u) {
        const Reg v = emit_expr(*u.operand);
        if (u.op == UnaryOp::Not) {
            const std::int32_t dst = alloc();
            emit(Op::NotB, dst, v.idx);
            return Reg{dst, Type::Bool};
        }
        const Type t = type_of(u);
        const std::int32_t dst = alloc();
        switch (t) {
            case Type::Int: emit(Op::NegI, dst, v.idx); break;
            case Type::Float: emit(Op::NegF, dst, v.idx); break;
            default: emit(Op::NegD, dst, v.idx); break;
        }
        return Reg{dst, t};
    }

    Reg emit_binary(const Binary& b) {
        // Short-circuit logical operators: the tree walker charges the
        // comparison before evaluating either side, then evaluates lazily.
        if (b.op == BinaryOp::And || b.op == BinaryOp::Or) {
            emit(Op::ChargeCmp);
            const std::int32_t dst = alloc();
            const Reg l = emit_expr(*b.lhs);
            emit(Op::LoadB, dst, b.op == BinaryOp::And ? 0 : 1);
            const std::int32_t jump = emit(
                b.op == BinaryOp::And ? Op::JmpF : Op::JmpT, l.idx, 0);
            const Reg r = emit_expr(*b.rhs);
            emit(Op::Mov, dst, r.idx);
            cf_.code[static_cast<std::size_t>(jump)].b = here();
            return Reg{dst, Type::Bool};
        }

        const Reg l = emit_expr(*b.lhs);
        const Reg r = emit_expr(*b.rhs);

        if (is_comparison(b.op)) {
            // Int compare iff both operands are Int (statically decidable:
            // the tree walker's runtime tags equal the static types).
            const bool both_int =
                l.type == Type::Int && r.type == Type::Int;
            const std::int32_t dst = alloc();
            if (both_int) {
                emit(cmp_op(b.op, /*ints=*/true), dst, l.idx, r.idx);
            } else {
                const Reg ld = to_double(l);
                const Reg rd = to_double(r);
                emit(cmp_op(b.op, /*ints=*/false), dst, ld.idx, rd.idx);
            }
            return Reg{dst, Type::Bool};
        }

        const Type t = type_of(b);
        const std::int32_t dst = alloc();
        if (t == Type::Int) {
            emit(arith_op(b.op, Type::Int), dst, l.idx, r.idx);
            return Reg{dst, Type::Int};
        }
        const Reg ld = to_double(l);
        const Reg rd = to_double(r);
        emit(arith_op(b.op, t), dst, ld.idx, rd.idx);
        return Reg{dst, t};
    }

    Op cmp_op(BinaryOp op, bool ints) const {
        switch (op) {
            case BinaryOp::Lt: return ints ? Op::LtI : Op::LtD;
            case BinaryOp::Le: return ints ? Op::LeI : Op::LeD;
            case BinaryOp::Gt: return ints ? Op::GtI : Op::GtD;
            case BinaryOp::Ge: return ints ? Op::GeI : Op::GeD;
            case BinaryOp::Eq: return ints ? Op::EqI : Op::EqD;
            case BinaryOp::Ne: return ints ? Op::NeI : Op::NeD;
            default: internal("non-comparison op in cmp_op");
        }
    }

    Op arith_op(BinaryOp op, Type t) const {
        switch (op) {
            case BinaryOp::Add:
                return t == Type::Int ? Op::AddI
                                      : (t == Type::Float ? Op::AddF
                                                          : Op::AddD);
            case BinaryOp::Sub:
                return t == Type::Int ? Op::SubI
                                      : (t == Type::Float ? Op::SubF
                                                          : Op::SubD);
            case BinaryOp::Mul:
                return t == Type::Int ? Op::MulI
                                      : (t == Type::Float ? Op::MulF
                                                          : Op::MulD);
            case BinaryOp::Div:
                return t == Type::Int ? Op::DivI
                                      : (t == Type::Float ? Op::DivF
                                                          : Op::DivD);
            case BinaryOp::Mod:
                if (t == Type::Int) return Op::ModI;
                internal("non-int modulo");
            default: internal("non-arithmetic op in arith_op");
        }
    }

    Reg emit_call(const Call& c) {
        if (const sema::BuiltinInfo* b = sema::find_builtin(c.callee)) {
            // All arguments evaluate to doubles first, then one charge of
            // the builtin's flop cost (CallBuiltin performs it).
            std::vector<std::int32_t> arg_regs;
            arg_regs.reserve(c.args.size());
            for (const auto& a : c.args)
                arg_regs.push_back(to_double(emit_expr(*a)).idx);
            const std::int32_t dst = alloc();
            emit(Op::CallBuiltin, dst, mc_.intern_builtin(b),
                 mc_.arg_list(arg_regs));
            return Reg{dst, b->result};
        }

        const Function* callee = mc_.module.find_function(c.callee);
        if (callee == nullptr)
            internal("call to unknown function '" + c.callee + "'");
        auto idx_it = mc_.out.fn_index.find(c.callee);
        if (idx_it == mc_.out.fn_index.end())
            internal("uncompiled callee '" + c.callee + "'");

        std::vector<std::int32_t> arg_regs;
        arg_regs.reserve(c.args.size());
        for (std::size_t i = 0; i < c.args.size(); ++i) {
            const Param& p = *callee->params[i];
            if (p.type.is_pointer) {
                const auto& id = static_cast<const Ident&>(*c.args[i]);
                arg_regs.push_back(breg(id.name));
            } else {
                // convert_to(param type) at bind time is charge-free; the
                // conversion commutes with the kCallCost charge, so it can
                // be emitted in the caller.
                const Reg v = conv(emit_expr(*c.args[i]), p.type.elem);
                arg_regs.push_back(v.idx);
            }
        }
        const std::int32_t dst = alloc();
        emit(Op::CallUser, callee->ret == Type::Void ? -1 : dst,
             static_cast<std::int32_t>(idx_it->second),
             mc_.arg_list(arg_regs));
        return Reg{dst, callee->ret};
    }

    // ---- statements ---------------------------------------------------

    void emit_block(const Block& block) {
        for (const auto& s : block.stmts) emit_stmt(*s);
    }

    void emit_stmt(const Stmt& stmt) {
        const std::int32_t save = next_reg_;
        switch (stmt.kind()) {
            case NodeKind::Block:
                emit_block(static_cast<const Block&>(stmt));
                break;
            case NodeKind::VarDecl:
                emit_var_decl(static_cast<const VarDecl&>(stmt));
                break;
            case NodeKind::Assign:
                emit_assign(static_cast<const Assign&>(stmt));
                break;
            case NodeKind::If: {
                const auto& i = static_cast<const If&>(stmt);
                emit(Op::ChargeCmp);
                const Reg cond = emit_expr(*i.cond);
                const std::int32_t jf = emit(Op::JmpF, cond.idx, 0);
                next_reg_ = save;
                emit_block(*i.then_body);
                if (i.else_body) {
                    const std::int32_t jend = emit(Op::Jmp, 0);
                    cf_.code[static_cast<std::size_t>(jf)].b = here();
                    emit_block(*i.else_body);
                    cf_.code[static_cast<std::size_t>(jend)].a = here();
                } else {
                    cf_.code[static_cast<std::size_t>(jf)].b = here();
                }
                break;
            }
            case NodeKind::For:
                emit_for(static_cast<const For&>(stmt));
                break;
            case NodeKind::While: {
                const auto& w = static_cast<const While&>(stmt);
                const std::int32_t head = here();
                emit(Op::ChargeCmp);
                const Reg cond = emit_expr(*w.cond);
                const std::int32_t jf = emit(Op::JmpF, cond.idx, 0);
                next_reg_ = save;
                emit_block(*w.body);
                emit(Op::Jmp, head);
                cf_.code[static_cast<std::size_t>(jf)].b = here();
                break;
            }
            case NodeKind::Return: {
                const auto& r = static_cast<const Return&>(stmt);
                if (r.value) {
                    const Reg v = emit_expr(*r.value);
                    if (fn_.ret == Type::Void) {
                        emit(Op::RetVoid);
                    } else {
                        // convert_to(ret) at the call boundary is
                        // charge-free and cannot throw on a real value.
                        const Reg rv = conv(v, fn_.ret);
                        emit(Op::Ret, rv.idx);
                    }
                } else if (fn_.ret == Type::Void) {
                    emit(Op::RetVoid);
                } else {
                    // void_value().convert_to(ret) throws in the caller.
                    trap(fn_.ret == Type::Bool ? "value is not bool"
                                               : "value is not numeric");
                }
                break;
            }
            case NodeKind::ExprStmt:
                (void)emit_expr(*static_cast<const ExprStmt&>(stmt).expr);
                break;
            default: internal("unexpected statement node");
        }
        next_reg_ = save;
    }

    void emit_implicit_return() {
        if (fn_.ret == Type::Void) {
            emit(Op::RetVoid);
        } else {
            trap(fn_.ret == Type::Bool ? "value is not bool"
                                       : "value is not numeric");
        }
    }

    void emit_var_decl(const VarDecl& d) {
        if (d.is_array) {
            const Reg size = to_int(emit_expr(*d.array_size));
            emit(Op::NewBuf, breg(d.name), size.idx,
                 mc_.intern_buf(d.elem, d.name));
        } else {
            const std::int32_t dst = sreg(d.name);
            if (d.init) {
                conv_into(dst, emit_expr(*d.init), d.elem);
            } else if (d.elem == Type::Bool) {
                // of_int(0).convert_to(Bool) throws in the tree walker.
                trap("value is not bool");
            } else if (d.elem == Type::Int) {
                move_into(dst, int_constant(0).idx);
            } else {
                move_into(dst, real_constant(0.0, d.elem).idx);
            }
        }
        emit(Op::ChargeAssign);
    }

    Op compound_op(AssignOp op, Type t) const {
        switch (op) {
            case AssignOp::Add:
                return t == Type::Int ? Op::CAddI
                                      : (t == Type::Float ? Op::CAddF
                                                          : Op::CAddD);
            case AssignOp::Sub:
                return t == Type::Int ? Op::CSubI
                                      : (t == Type::Float ? Op::CSubF
                                                          : Op::CSubD);
            case AssignOp::Mul:
                return t == Type::Int ? Op::CMulI
                                      : (t == Type::Float ? Op::CMulF
                                                          : Op::CMulD);
            case AssignOp::Div:
                return t == Type::Int ? Op::CDivI
                                      : (t == Type::Float ? Op::CDivF
                                                          : Op::CDivD);
            default: internal("Set in compound_op");
        }
    }

    void emit_assign(const Assign& a) {
        emit(Op::ChargeAssign);
        const Reg rhs = emit_expr(*a.value);

        if (const auto* id = dyn_cast<Ident>(a.target.get())) {
            if (sreg_of_.count(id->name) == 0) {
                // The tree walker throws when the slot holds a buffer.
                trap(("cannot assign to array '" + id->name + "'").c_str());
                return;
            }
            const std::int32_t var = sreg(id->name);
            const Type declared = type_of(*a.target);
            if (a.op == AssignOp::Set) {
                conv_into(var, rhs, declared);
                return;
            }
            switch (declared) {
                case Type::Int: {
                    const Reg rc = to_int(rhs);
                    emit(compound_op(a.op, Type::Int), var, var, rc.idx);
                    return;
                }
                case Type::Float:
                case Type::Double: {
                    const Reg rc = to_double(rhs);
                    emit(compound_op(a.op, declared), var, var, rc.idx);
                    return;
                }
                default:
                    // current.as_double() on a bool target throws.
                    trap("value is not numeric");
                    return;
            }
        }

        const auto& ix = static_cast<const Index&>(*a.target);
        const auto& base = static_cast<const Ident&>(*ix.base);
        const std::int32_t buf = breg(base.name);
        const Type elem = buf_elem_.at(base.name);
        const Reg idx = to_int(emit_expr(*ix.index));

        if (a.op == AssignOp::Set) {
            const Reg rd = to_double(rhs);
            emit(Op::StoreElem, buf, idx.idx, rd.idx);
            return;
        }

        const Reg cur = emit_load_elem(base.name, idx);
        if (elem == Type::Int) {
            const Reg rc = to_int(rhs);
            emit(compound_op(a.op, Type::Int), cur.idx, cur.idx, rc.idx);
            const Reg curd = to_double(Reg{cur.idx, Type::Int});
            emit(Op::StoreElem, buf, idx.idx, curd.idx);
        } else {
            const Reg rc = to_double(rhs);
            emit(compound_op(a.op, elem), cur.idx, cur.idx, rc.idx);
            emit(Op::StoreElem, buf, idx.idx, cur.idx);
        }
    }

    void emit_for(const For& loop) {
        const auto region = region_of_.find(loop.id);
        if (region != region_of_.end()) emit(Op::RegionEnter, region->second);
        const std::int32_t save = next_reg_;
        const std::int32_t lidx = mc_.intern_loop(loop.id);
        emit(Op::LoopEnter, lidx);

        const Reg init = to_int(emit_expr(*loop.init));
        const std::int32_t var = sreg(loop.var);
        move_into(var, init.idx);
        next_reg_ = save;

        // Head snapshot: the step update uses the value read at the head,
        // so a body write to the loop variable does not change the next
        // iteration (exactly the tree walker's local `i`). A body that
        // cannot write the variable leaves it equal to the snapshot, so the
        // variable serves as its own snapshot.
        const bool snapshot = body_writes(*loop.body, loop.var);
        const std::int32_t snap = snapshot ? alloc() : var;
        const std::int32_t head = here();
        if (snapshot) emit(Op::Mov, snap, var);
        const std::int32_t body_save = next_reg_;
        const Reg limit = to_int(emit_expr(*loop.limit));
        const std::int32_t jexit = emit(Op::LoopHead, snap, limit.idx, 0);
        next_reg_ = body_save;
        emit(Op::LoopTrip, lidx);
        emit_block(*loop.body);
        const Reg step = to_int(emit_expr(*loop.step));
        const auto* lit = dyn_cast<IntLit>(loop.step.get());
        if (lit == nullptr || lit->value <= 0)
            emit(Op::StepCheck, step.idx,
                 mc_.intern_name(to_string(loop.loc) +
                                 ": for-loop step must be positive"));
        // With no snapshot and no limit code, LoopHead is the loop head
        // and its operands still hold at the back-edge, so one LoopNext
        // replaces `IncI; Jmp` and the re-dispatch of LoopHead/LoopTrip.
        // Folding only shortens the body, so its distance still fits.
        const std::int32_t body = jexit + 2;
        if (!snapshot && jexit == head && here() - body <= UINT16_MAX) {
            back_edges_.push_back(
                BackEdge{emit(Op::LoopNext, var, limit.idx, step.idx), body});
        } else {
            emit(Op::IncI, var, snap, step.idx);
            emit(Op::Jmp, head);
        }
        next_reg_ = body_save;
        cf_.code[static_cast<std::size_t>(jexit)].c = here();
        emit(Op::LoopExit);
        if (region != region_of_.end()) emit(Op::RegionExit, region->second);
        next_reg_ = save;
    }
};

} // namespace

CompiledModule compile(const ast::Module& module, const sema::TypeInfo& types,
                       const std::string& focus_function, bool region_focus) {
    ModuleCompiler mc(module, types, focus_function, region_focus);
    // Two phases: indices first, so calls can reference any function.
    for (const auto& fn : module.functions) {
        mc.out.fn_index.emplace(
            fn->name, static_cast<std::uint32_t>(mc.out.functions.size()));
        mc.out.functions.emplace_back();
    }
    for (const auto& fn : module.functions) {
        FnCompiler fc(mc, *fn);
        mc.out.functions[mc.out.fn_index.at(fn->name)] = fc.compile();
    }
    return std::move(mc.out);
}

// ------------------------------------------------------------------------
// Disassembler
// ------------------------------------------------------------------------

const char* to_string(Op op) {
    switch (op) {
        case Op::LoadB: return "LoadB";
        case Op::Mov: return "Mov";
        case Op::I2D: return "I2D";
        case Op::D2I: return "D2I";
        case Op::D2F: return "D2F";
        case Op::I2F: return "I2F";
        case Op::Jmp: return "Jmp";
        case Op::JmpF: return "JmpF";
        case Op::JmpT: return "JmpT";
        case Op::ChargeCmp: return "ChargeCmp";
        case Op::ChargeAssign: return "ChargeAssign";
        case Op::AddI: return "AddI";
        case Op::SubI: return "SubI";
        case Op::MulI: return "MulI";
        case Op::DivI: return "DivI";
        case Op::ModI: return "ModI";
        case Op::NegI: return "NegI";
        case Op::IncI: return "IncI";
        case Op::AddD: return "AddD";
        case Op::SubD: return "SubD";
        case Op::MulD: return "MulD";
        case Op::DivD: return "DivD";
        case Op::NegD: return "NegD";
        case Op::AddF: return "AddF";
        case Op::SubF: return "SubF";
        case Op::MulF: return "MulF";
        case Op::DivF: return "DivF";
        case Op::NegF: return "NegF";
        case Op::CAddI: return "CAddI";
        case Op::CSubI: return "CSubI";
        case Op::CMulI: return "CMulI";
        case Op::CDivI: return "CDivI";
        case Op::CAddD: return "CAddD";
        case Op::CSubD: return "CSubD";
        case Op::CMulD: return "CMulD";
        case Op::CDivD: return "CDivD";
        case Op::CAddF: return "CAddF";
        case Op::CSubF: return "CSubF";
        case Op::CMulF: return "CMulF";
        case Op::CDivF: return "CDivF";
        case Op::LtI: return "LtI";
        case Op::LeI: return "LeI";
        case Op::GtI: return "GtI";
        case Op::GeI: return "GeI";
        case Op::EqI: return "EqI";
        case Op::NeI: return "NeI";
        case Op::LtD: return "LtD";
        case Op::LeD: return "LeD";
        case Op::GtD: return "GtD";
        case Op::GeD: return "GeD";
        case Op::EqD: return "EqD";
        case Op::NeD: return "NeD";
        case Op::NotB: return "NotB";
        case Op::LoopEnter: return "LoopEnter";
        case Op::LoopHead: return "LoopHead";
        case Op::LoopTrip: return "LoopTrip";
        case Op::LoopNext: return "LoopNext";
        case Op::LoopExit: return "LoopExit";
        case Op::StepCheck: return "StepCheck";
        case Op::NewBuf: return "NewBuf";
        case Op::LoadElemI: return "LoadElemI";
        case Op::LoadElemF: return "LoadElemF";
        case Op::LoadElemD: return "LoadElemD";
        case Op::StoreElem: return "StoreElem";
        case Op::CallBuiltin: return "CallBuiltin";
        case Op::CallUser: return "CallUser";
        case Op::Ret: return "Ret";
        case Op::RetVoid: return "RetVoid";
        case Op::Trap: return "Trap";
        case Op::RegionEnter: return "RegionEnter";
        case Op::RegionExit: return "RegionExit";
        case Op::MulI_AddI_LoadElemD: return "MulI+AddI+LoadElemD";
        case Op::MulI_AddI: return "MulI+AddI";
        case Op::AddI_LoadElemD: return "AddI+LoadElemD";
        case Op::MulD_AddD: return "MulD+AddD";
        case Op::DivD_SubD: return "DivD+SubD";
        case Op::AddD_DivD: return "AddD+DivD";
        case Op::MulD_CAddD: return "MulD+CAddD";
        case Op::LoadElemD_SubD: return "LoadElemD+SubD";
        case Op::SubD_MulD: return "SubD+MulD";
        case Op::SubD_CallBuiltin: return "SubD+CallBuiltin";
        case Op::CallBuiltin_MulD: return "CallBuiltin+MulD";
    }
    return "?";
}

std::span<const Op> fused_members(Op op) {
    for (const FusedSeq& seq : kFusedSeqs)
        if (seq.fused == op) return {seq.members, seq.size};
    return {};
}

namespace {

std::string fmt_real(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void disasm_insn(std::ostringstream& os, const CompiledModule& m,
                 const Insn& in, std::int32_t pc) {
    const auto s = [](std::int32_t r) { return "s" + std::to_string(r); };
    const auto b = [](std::int32_t r) { return "b" + std::to_string(r); };
    const auto at = [](std::int32_t pc) { return "@" + std::to_string(pc); };
    os << to_string(in.op);
    // A fused op shows its first member's operands.
    const std::span<const Op> members = fused_members(in.op);
    switch (members.empty() ? in.op : members.front()) {
        case Op::LoadB:
            os << " " << s(in.a) << ", " << (in.b != 0 ? "true" : "false");
            break;
        case Op::Mov:
        case Op::I2D:
        case Op::D2I:
        case Op::D2F:
        case Op::I2F:
        case Op::NegI:
        case Op::NegD:
        case Op::NegF:
        case Op::NotB:
            os << " " << s(in.a) << ", " << s(in.b);
            break;
        case Op::Jmp: os << " " << at(in.a); break;
        case Op::JmpF:
        case Op::JmpT:
            os << " " << s(in.a) << ", " << at(in.b);
            break;
        case Op::ChargeCmp:
        case Op::ChargeAssign:
        case Op::LoopExit:
        case Op::RetVoid:
            break;
        case Op::LoopEnter:
        case Op::LoopTrip:
            os << " L" << in.a;
            break;
        case Op::RegionEnter:
        case Op::RegionExit:
            os << " R" << in.a;
            break;
        case Op::LoopHead:
            os << " " << s(in.a) << ", " << s(in.b) << ", " << at(in.c);
            break;
        case Op::LoopNext:
            os << " " << s(in.a) << ", " << s(in.b) << ", " << s(in.c)
               << ", " << at(pc - in.back);
            break;
        case Op::StepCheck:
            os << " " << s(in.a) << ", \""
               << m.name_pool[static_cast<std::size_t>(in.b)] << "\"";
            break;
        case Op::NewBuf: {
            const BufDecl& d = m.buf_pool[static_cast<std::size_t>(in.c)];
            os << " " << b(in.a) << ", " << s(in.b) << ", "
               << ast::to_string(d.elem) << " '" << d.name << "'";
            break;
        }
        case Op::LoadElemI:
        case Op::LoadElemF:
        case Op::LoadElemD:
            os << " " << s(in.a) << ", " << b(in.b) << "[" << s(in.c) << "]";
            break;
        case Op::StoreElem:
            os << " " << b(in.a) << "[" << s(in.b) << "], " << s(in.c);
            break;
        case Op::CallBuiltin: {
            const sema::BuiltinInfo* info =
                m.builtin_pool[static_cast<std::size_t>(in.b)];
            os << " " << s(in.a) << ", " << info->name << "(";
            for (int i = 0; i < info->arity; ++i)
                os << (i > 0 ? ", " : "")
                   << s(m.arg_pool[static_cast<std::size_t>(in.c + i)]);
            os << ")";
            break;
        }
        case Op::CallUser: {
            const CompiledFunction& callee =
                m.functions[static_cast<std::size_t>(in.b)];
            if (in.a >= 0) os << " " << s(in.a) << ",";
            os << " " << callee.name << "(";
            for (std::size_t i = 0; i < callee.params.size(); ++i) {
                const std::int32_t reg =
                    m.arg_pool[static_cast<std::size_t>(in.c) + i];
                os << (i > 0 ? ", " : "")
                   << (callee.params[i].is_pointer ? b(reg) : s(reg));
            }
            os << ")";
            break;
        }
        case Op::Ret: os << " " << s(in.a); break;
        case Op::Trap:
            os << " \"" << m.name_pool[static_cast<std::size_t>(in.a)]
               << "\"";
            break;
        default:
            os << " " << s(in.a) << ", " << s(in.b) << ", " << s(in.c);
            break;
    }
}

} // namespace

std::string disassemble(const CompiledModule& module,
                        const CompiledFunction& fn) {
    std::ostringstream os;
    os << "func " << fn.name << "(";
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
        const ParamSpec& p = fn.params[i];
        os << (i > 0 ? ", " : "") << p.name << ": "
           << ast::to_string(p.elem) << (p.is_pointer ? "*" : "");
    }
    os << ") ret=" << ast::to_string(fn.ret) << " sregs=" << fn.n_sregs
       << " bregs=" << fn.n_bregs;
    if (fn.is_focus) os << " focus";
    os << "\n";
    const std::size_t first_const = fn.n_sregs - fn.consts.size();
    for (std::size_t k = 0; k < fn.consts.size(); ++k) {
        const Constant& c = fn.consts[k];
        os << "  const " << ast::to_string(c.type) << " s" << first_const + k
           << " = ";
        switch (c.type) {
            case ast::Type::Int: os << c.value.i; break;
            case ast::Type::Bool: os << (c.value.b ? "true" : "false"); break;
            default: os << fmt_real(c.value.d); break;
        }
        os << "\n";
    }
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
        os << "  ";
        if (pc < 10) os << " ";
        os << pc << ": ";
        const Insn& in = fn.code[pc];
        disasm_insn(os, module, in, static_cast<std::int32_t>(pc));
        if (in.pre > 0) os << " pre=" << static_cast<int>(in.pre);
        os << "\n";
    }
    return std::move(os).str();
}

std::string disassemble(const CompiledModule& module) {
    std::ostringstream os;
    for (std::size_t i = 0; i < module.functions.size(); ++i) {
        if (i > 0) os << "\n";
        os << disassemble(module, module.functions[i]);
    }
    return std::move(os).str();
}

} // namespace psaflow::interp::bc
