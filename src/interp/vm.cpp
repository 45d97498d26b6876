#include "interp/vm.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "interp/bytecode.hpp"
#include "interp/focus.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace psaflow::interp {

namespace {

// The cost-unit weights of interpreter.cpp: the two engines must charge
// identical amounts at identical points. Every weight, flop count and byte
// count is a small integer, so the VM keeps its pending sums in integers
// and converts once per flush.
constexpr long long kIntOpCost = 1;
constexpr long long kCmpCost = 1;
constexpr long long kMemCost = 2;
constexpr long long kLoopIterCost = 2;
constexpr long long kAssignCost = 1;
constexpr long long kCallCost = 8;
// A folded standalone charge (Insn::pre) is one step of one cost unit.
static_assert(kCmpCost == 1 && kAssignCost == 1);

/// The cancellation poll period of both engines, in steps.
constexpr long long kPollMask = 0x1fff;

[[noreturn, gnu::cold, gnu::noinline]] void throw_max_steps() {
    throw InterpError("execution exceeded max_steps (runaway loop?)");
}

/// Frames are zero-initialized on allocation, so reads are always defined
/// even for (sema-impossible) use-before-declaration.
using bc::Sreg;

double round_f(double v) {
    return static_cast<double>(static_cast<float>(v));
}

#ifdef PSAFLOW_OP_COUNTER
/// Census of executed ops (CMake option PSAFLOW_OP_COUNTER): each op, and
/// each pair of ops where the second fell through from the first. A fused
/// run counts as its members, so the census does not depend on which
/// sequences are fused. Exported as the trace counters "interp.op.<Op>"
/// and "interp.pair.<Op>+<Op>".
class OpCounter {
public:
    void note(const bc::Insn* ip) {
        const std::span<const bc::Op> members = bc::fused_members(ip->op);
        if (members.empty()) {
            count(ip, ip->op);
            return;
        }
        for (std::size_t k = 0; k < members.size(); ++k)
            count(ip + k, members[k]);
    }

    void flush() {
        trace::Registry& registry = trace::Registry::current();
        for (std::size_t a = 0; a < bc::kOpCount; ++a) {
            const auto op_a = static_cast<bc::Op>(a);
            if (ops_[a] != 0)
                registry.count(std::string("interp.op.") + bc::to_string(op_a),
                               ops_[a]);
            for (std::size_t b = 0; b < bc::kOpCount; ++b) {
                const std::uint64_t n = pairs_[a * bc::kOpCount + b];
                if (n == 0) continue;
                registry.count(std::string("interp.pair.") +
                                   bc::to_string(op_a) + "+" +
                                   bc::to_string(static_cast<bc::Op>(b)),
                               n);
            }
        }
        ops_.fill(0);
        pairs_.fill(0);
        next_ = nullptr;
    }

private:
    void count(const bc::Insn* at, bc::Op op) {
        const auto i = static_cast<std::size_t>(op);
        ++ops_[i];
        if (at == next_) ++pairs_[prev_ * bc::kOpCount + i];
        prev_ = i;
        next_ = at + 1;
    }

    std::array<std::uint64_t, bc::kOpCount> ops_{};
    std::array<std::uint64_t, bc::kOpCount * bc::kOpCount> pairs_{};
    std::size_t prev_ = 0;
    const bc::Insn* next_ = nullptr; ///< where a fall-through lands
};
#endif

} // namespace

struct Vm::Impl {
    InterpOptions options;
    bc::CompiledModule code;
    ExecutionProfile prof;

    // Contiguous register stack: frame k owns sregs[sbase, sbase+n_sregs)
    // and bregs[bbase, bbase+n_bregs). resize() value-initializes fresh
    // slots, so every frame starts zeroed.
    std::vector<Sreg> sregs;
    std::vector<BufferPtr> bregs;

    struct Frame {
        const bc::CompiledFunction* fn = nullptr;
        std::int32_t ret_pc = 0;  ///< caller pc to resume at
        std::int32_t ret_dst = -1; ///< caller sreg for the result; -1 = none
        std::size_t sbase = 0;
        std::size_t bbase = 0;
        std::size_t loop_mark = 0; ///< loop_stack depth at entry (Ret unwind)
    };
    std::vector<Frame> frames;

    // Loop attribution stack — field-for-field the tree walker's.
    struct ActiveLoop {
        LoopStats* stats;
        std::size_t frame;
    };
    std::vector<ActiveLoop> loop_stack;
    /// LoopStats per loop-pool index, resolved lazily; prof.loops is an
    /// unordered_map, so the pointers are rehash-stable.
    std::vector<LoopStats*> loop_cache;

    FocusTracker focus; ///< the focus function's calls
    /// The region_pool's regions; an activation is tagged with the frame
    /// depth it opened at, so Ret closes the returning frame's own.
    RegionFocus regions;

    long long steps = 0;

    // Charges not yet attributed to the active-loop stack. They are exact
    // integers, so batching at loop/call boundaries is bit-identical to
    // the tree walker's per-charge accumulation — while turning the
    // O(active loops) walk per instruction into O(1).
    long long pend_cost = 0;
    long long pend_flops = 0;
    long long pend_bytes = 0;

    /// The charge state of a running dispatch(), held in its locals so the
    /// hot path neither reloads it through `this` after every register
    /// write nor stores it back. `left` counts the steps that may still be
    /// taken before the next max_steps check or cancellation poll is due;
    /// `granted` is its value at the last settle(). The sums are pending
    /// on top of pend_*.
    struct Meter {
        long long left = 0;
        long long granted = 0;
        long long cost = 0;
        long long flops = 0;
        long long bytes = 0;
    };

    // Per-call arg staging (the dispatch loop is not reentrant).
    std::vector<Sreg> scratch_s;
    std::vector<BufferPtr> scratch_b;

#ifdef PSAFLOW_OP_COUNTER
    OpCounter op_counter;
#endif

    Impl(const ast::Module& m, const sema::TypeInfo& t, InterpOptions o)
        : options(std::move(o)),
          code(bc::compile(m, t, options.focus_function,
                           options.profile && options.region_focus)),
          loop_cache(code.loop_pool.size(), nullptr),
          regions(code.region_pool.size()) {
        focus.stats = &prof.focus;
    }

    // ---- bookkeeping (identical to the tree walker's) -----------------

    /// One charge exactly as the tree walker makes it.
    void charge_one(long long cost, long long flops, long long bytes) {
        if (++steps > options.max_steps) throw_max_steps();
        if ((steps & kPollMask) == 0) poll_cancellation();
        if (!options.profile) return;
        pend_cost += cost;
        pend_flops += flops;
        pend_bytes += bytes;
    }

    /// `pre` folded standalone charges, then a charge of cost/flops/bytes.
    /// The hot path is one compare: charge_slowly() replays the charges one
    /// by one whenever max_steps or a multiple of the poll period is within
    /// reach, so the error fires at the same step with the same partial
    /// profile and the poll lands on the same steps as the tree walker's.
    [[gnu::always_inline]] void charge(Meter& m, int pre, long long cost,
                                       long long flops = 0,
                                       long long bytes = 0) {
        const long long n = 1 + pre;
        if (n > m.left) [[unlikely]] {
            settle(m);
            charge_slowly(pre, cost, flops, bytes);
            rearm(m);
            return;
        }
        m.left -= n;
        m.cost += cost + pre;
        m.flops += flops;
        m.bytes += bytes;
    }

    [[gnu::cold, gnu::noinline]] void charge_slowly(int pre, long long cost,
                                                    long long flops,
                                                    long long bytes) {
        for (int k = 0; k < pre; ++k) charge_one(1, 0, 0);
        charge_one(cost, flops, bytes);
    }

    /// Write the meter's state back to `steps` and pend_*. Idempotent: a
    /// second settle adds nothing, so a throw after one is safe.
    [[gnu::always_inline]] void settle(Meter& m) {
        steps += m.granted - m.left;
        m.granted = m.left;
        if (options.profile) {
            pend_cost += m.cost;
            pend_flops += m.flops;
            pend_bytes += m.bytes;
        }
        m.cost = 0;
        m.flops = 0;
        m.bytes = 0;
    }

    /// Grant the steps up to max_steps or the next poll, whichever is
    /// first. Only after settle().
    [[gnu::always_inline]] void rearm(Meter& m) const {
        m.left = m.granted = std::min(options.max_steps, steps | kPollMask) -
                             steps;
    }

    /// Fold the pending charges into the profile totals and every active
    /// loop. Must run before anything that reads the totals (focus
    /// snapshots) or changes what "active" means — a loop_stack push/pop or
    /// a frames push/pop (self_cost attribution keys on the frame depth the
    /// charges happened at). Inside dispatch(), settle() the meter first.
    void flush_charges() {
        if (pend_cost == 0 && pend_flops == 0 && pend_bytes == 0) return;
        prof.total_cost += pend_cost;
        prof.total_flops += pend_flops;
        prof.total_mem_bytes += pend_bytes;
        const std::size_t depth = frames.size();
        for (ActiveLoop& al : loop_stack) {
            al.stats->cost += pend_cost;
            al.stats->flops += pend_flops;
            al.stats->mem_bytes += pend_bytes;
            if (al.frame == depth) al.stats->self_cost += pend_cost;
        }
        pend_cost = 0;
        pend_flops = 0;
        pend_bytes = 0;
    }

    // ---- focus tracking ------------------------------------------------

    /// Focus-entry bookkeeping shared by entry and nested calls; runs after
    /// the kCallCost charge and before parameter binding, exactly like the
    /// tree walker. `bufs` are the pointer params' buffers in order.
    void focus_enter(const bc::CompiledFunction& fn,
                     const std::vector<BufferPtr>& bufs) {
        if (!focus.enter(prof)) return;
        prof.focus_function = fn.name;
        std::size_t bi = 0;
        for (const bc::ParamSpec& p : fn.params) {
            if (!p.is_pointer) continue;
            const BufferPtr& b = bufs[bi++];
            focus.bind(b->id(), b->elem_bytes(), p.name);
        }
    }

    /// RegionEnter: after the charges before the loop are flushed, like a
    /// kernel call's focus snapshot after its kCallCost.
    void region_enter(std::size_t idx, const BufferPtr* B) {
        const bc::RegionDecl& decl = code.region_pool[idx];
        if (!regions.enter(idx, prof.regions[decl.loop], prof, frames.size()))
            return;
        for (std::size_t k = 0; k < decl.bufs.size(); ++k) {
            const BufferPtr& b = B[decl.bufs[k]];
            if (b != nullptr)
                regions.bind(b->id(), b->elem_bytes(), decl.names[k]);
        }
    }

    // ---- entry ---------------------------------------------------------

    Value call_entry(const bc::CompiledFunction& fn,
                     const std::vector<Arg>& args) {
        charge_one(kCallCost, 0, 0);
        flush_charges(); // before the focus snapshot reads the totals
        if (args.size() != fn.params.size())
            throw Error("internal: call arity mismatch for '" + fn.name + "'");

        Frame f;
        f.fn = &fn;
        f.sbase = sregs.size();
        f.bbase = bregs.size();
        f.loop_mark = loop_stack.size();

        if (options.profile && fn.is_focus && focus.enter(prof)) {
            // Focus binding sees the buffer args only (a scalar passed for
            // a pointer param is skipped here and rejected just below).
            prof.focus_function = fn.name;
            for (std::size_t i = 0; i < fn.params.size(); ++i) {
                if (!fn.params[i].is_pointer) continue;
                if (const auto* b = std::get_if<BufferPtr>(&args[i]))
                    focus.bind((*b)->id(), (*b)->elem_bytes(),
                               fn.params[i].name);
            }
        }

        scratch_s.clear();
        scratch_b.clear();
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            const bc::ParamSpec& p = fn.params[i];
            if (p.is_pointer) {
                const auto* b = std::get_if<BufferPtr>(&args[i]);
                if (b == nullptr)
                    throw Error("array argument expected for parameter '" +
                                p.name + "'");
                if ((*b)->elem_type() != p.elem)
                    throw Error("buffer element type mismatch for parameter '" +
                                p.name + "'");
                scratch_b.push_back(*b);
            } else {
                const auto* v = std::get_if<Value>(&args[i]);
                if (v == nullptr)
                    throw Error("scalar argument expected for parameter '" +
                                p.name + "'");
                scratch_s.push_back(unbox(v->convert_to(p.elem), p.elem));
            }
        }

        push_frame(f);
        return dispatch();
    }

    /// Push `f` with a zeroed register window holding the staged params
    /// (scratch_s/scratch_b) and the function's constant registers.
    void push_frame(const Frame& f) {
        const bc::CompiledFunction& fn = *f.fn;
        frames.push_back(f);
        sregs.resize(f.sbase + fn.n_sregs);
        bregs.resize(f.bbase + fn.n_bregs);
        Sreg* S = sregs.data() + f.sbase;
        std::copy(scratch_s.begin(), scratch_s.end(), S);
        std::move(scratch_b.begin(), scratch_b.end(),
                  bregs.begin() + static_cast<std::ptrdiff_t>(f.bbase));
        Sreg* K = S + (fn.n_sregs - fn.consts.size());
        for (const bc::Constant& c : fn.consts) *K++ = c.value;
    }

    static Sreg unbox(const Value& v, ast::Type t) {
        Sreg r{};
        switch (t) {
            case ast::Type::Int: r.i = v.as_int(); break;
            case ast::Type::Bool: r.b = v.as_bool(); break;
            default: r.d = v.as_double(); break;
        }
        return r;
    }

    static Value box(ast::Type t, Sreg r) {
        switch (t) {
            case ast::Type::Int: return Value::of_int(r.i);
            case ast::Type::Float: return Value::of_float(r.d);
            case ast::Type::Double: return Value::of_double(r.d);
            case ast::Type::Bool: return Value::of_bool(r.b);
            default: return Value::void_value();
        }
    }

    // ---- op bodies -----------------------------------------------------
    // The ops fused sequences are made of, shared by their own case and by
    // every fused case that runs them; `S` and `B` are the running frame's
    // register windows.

    [[gnu::always_inline]] void mul_i(Meter& m, Sreg* S, const bc::Insn& x) {
        charge(m, x.pre, kIntOpCost);
        S[x.a].i = S[x.b].i * S[x.c].i;
    }
    [[gnu::always_inline]] void add_i(Meter& m, Sreg* S, const bc::Insn& x) {
        charge(m, x.pre, kIntOpCost);
        S[x.a].i = S[x.b].i + S[x.c].i;
    }
    [[gnu::always_inline]] void add_d(Meter& m, Sreg* S, const bc::Insn& x) {
        charge(m, x.pre, 1, 1);
        S[x.a].d = add_pinned(S[x.b].d, S[x.c].d);
    }
    [[gnu::always_inline]] void sub_d(Meter& m, Sreg* S, const bc::Insn& x) {
        charge(m, x.pre, 1, 1);
        S[x.a].d = S[x.b].d - S[x.c].d;
    }
    [[gnu::always_inline]] void mul_d(Meter& m, Sreg* S, const bc::Insn& x) {
        charge(m, x.pre, 1, 1);
        S[x.a].d = mul_pinned(S[x.b].d, S[x.c].d);
    }
    [[gnu::always_inline]] void div_d(Meter& m, Sreg* S, const bc::Insn& x) {
        charge(m, x.pre, 4, 4);
        S[x.a].d = S[x.b].d / S[x.c].d;
    }
    [[gnu::always_inline]] void cadd_d(Meter& m, Sreg* S, const bc::Insn& x) {
        charge(m, x.pre, 1, 1);
        S[x.a].d = add_pinned(S[x.b].d, S[x.c].d);
    }

    [[gnu::always_inline]] void call_builtin(Meter& m, Sreg* S,
                                             const bc::Insn& x) {
        const sema::BuiltinInfo* b =
            code.builtin_pool[static_cast<std::size_t>(x.b)];
        double argv[4];
        for (int k = 0; k < b->arity; ++k)
            argv[k] = S[code.arg_pool[static_cast<std::size_t>(x.c + k)]].d;
        charge(m, x.pre, b->flop_cost, b->flop_cost);
        if (options.profile) prof.total_call_flops += b->flop_cost;
        const double out = sema::eval_builtin(
            *b, std::span<const double>(argv,
                                        static_cast<std::size_t>(b->arity)));
        S[x.a].d = b->result == ast::Type::Float ? round_f(out) : out;
    }

    /// An element access: its charge, then the focus bookkeeping (the
    /// focus function's in a focus run, the regions' in a region run).
    [[gnu::always_inline]] void access(Meter& m, int pre, const BufferPtr& buf,
                                       long long idx, bool write) {
        charge(m, pre, kMemCost, 0, buf->elem_bytes());
        if (!options.profile) return;
        if (focus.depth == 1) focus.note(buf->id(), idx, write);
        if (regions.open()) regions.note(buf->id(), idx, write);
    }

    [[gnu::always_inline]] void load_d(Meter& m, Sreg* S, BufferPtr* B,
                                       const bc::Insn& x) {
        const long long idx = S[x.c].i;
        access(m, x.pre, B[x.b], idx, /*write=*/false);
        S[x.a].d = B[x.b]->load(idx);
    }

    // ---- the dispatch loop ---------------------------------------------

    /// Runs until the entry frame returns, with the charge state in the
    /// local meter `m`. run() settles it before a flush, a focus snapshot
    /// and a return; a throw out of run() settles it here.
    Value dispatch() {
        Meter m;
        rearm(m);
        try {
            return run(m);
        } catch (...) {
            settle(m);
            throw;
        }
    }

    /// dispatch()'s loop, inlined there so the meter stays in registers.
    [[gnu::always_inline]] Value run(Meter& m) {
        using bc::Op;
        const bool profile = options.profile;
        const Frame* fr = &frames.back();
        const bc::Insn* base = fr->fn->code.data(); // jump targets index it
        const bc::Insn* ip = base;
        Sreg* S = sregs.data() + fr->sbase;
        BufferPtr* B = bregs.data() + fr->bbase;

        for (;;) {
#ifdef PSAFLOW_OP_COUNTER
            op_counter.note(ip);
#endif
            // Handlers that move ip `continue`; the others fall through to
            // the `++ip` below the switch.
            const bc::Insn& in = *ip;
            switch (in.op) {
                // ---- data movement ----
                case Op::LoadB: S[in.a].b = in.b != 0; break;
                case Op::Mov: S[in.a] = S[in.b]; break;
                case Op::I2D:
                    S[in.a].d = static_cast<double>(S[in.b].i);
                    break;
                case Op::D2I:
                    S[in.a].i = static_cast<long long>(S[in.b].d);
                    break;
                case Op::D2F: S[in.a].d = round_f(S[in.b].d); break;
                case Op::I2F:
                    // Via double, like of_float(as_double()).
                    S[in.a].d = round_f(static_cast<double>(S[in.b].i));
                    break;
                // ---- control ----
                case Op::Jmp: ip = base + in.a; continue;
                case Op::JmpF:
                    if (S[in.a].b) break;
                    ip = base + in.b;
                    continue;
                case Op::JmpT:
                    if (!S[in.a].b) break;
                    ip = base + in.b;
                    continue;
                // ---- standalone charges ----
                case Op::ChargeCmp: charge(m, in.pre, kCmpCost); break;
                case Op::ChargeAssign: charge(m, in.pre, kAssignCost); break;
                // ---- int arithmetic ----
                case Op::AddI: add_i(m, S, in); break;
                case Op::SubI:
                    charge(m, in.pre, kIntOpCost);
                    S[in.a].i = S[in.b].i - S[in.c].i;
                    break;
                case Op::MulI: mul_i(m, S, in); break;
                case Op::DivI:
                    charge(m, in.pre, kIntOpCost);
                    if (S[in.c].i == 0)
                        throw InterpError("integer division by zero");
                    S[in.a].i = S[in.b].i / S[in.c].i;
                    break;
                case Op::ModI:
                    charge(m, in.pre, kIntOpCost);
                    if (S[in.c].i == 0)
                        throw InterpError("integer modulo by zero");
                    S[in.a].i = S[in.b].i % S[in.c].i;
                    break;
                case Op::NegI:
                    charge(m, in.pre, 1);
                    S[in.a].i = -S[in.b].i;
                    break;
                case Op::IncI: S[in.a].i = S[in.b].i + S[in.c].i; break;
                // ---- double arithmetic ----
                case Op::AddD: add_d(m, S, in); break;
                case Op::SubD: sub_d(m, S, in); break;
                case Op::MulD: mul_d(m, S, in); break;
                case Op::DivD: div_d(m, S, in); break;
                case Op::NegD:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = -S[in.b].d;
                    break;
                // ---- float arithmetic (compute in float) ----
                case Op::AddF:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = static_cast<double>(
                        add_pinned(static_cast<float>(S[in.b].d),
                                   static_cast<float>(S[in.c].d)));
                    break;
                case Op::SubF:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = static_cast<double>(
                        static_cast<float>(S[in.b].d) -
                        static_cast<float>(S[in.c].d));
                    break;
                case Op::MulF:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = static_cast<double>(
                        mul_pinned(static_cast<float>(S[in.b].d),
                                   static_cast<float>(S[in.c].d)));
                    break;
                case Op::DivF:
                    charge(m, in.pre, 4, 4);
                    S[in.a].d = static_cast<double>(
                        static_cast<float>(S[in.b].d) /
                        static_cast<float>(S[in.c].d));
                    break;
                case Op::NegF:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = round_f(-S[in.b].d);
                    break;
                // ---- compound-assign arithmetic (`combined`) ----
                case Op::CAddI:
                    charge(m, in.pre, 1);
                    S[in.a].i = S[in.b].i + S[in.c].i;
                    break;
                case Op::CSubI:
                    charge(m, in.pre, 1);
                    S[in.a].i = S[in.b].i - S[in.c].i;
                    break;
                case Op::CMulI:
                    charge(m, in.pre, 1);
                    S[in.a].i = S[in.b].i * S[in.c].i;
                    break;
                case Op::CDivI:
                    charge(m, in.pre, 4);
                    if (S[in.c].i == 0)
                        throw InterpError("integer division by zero");
                    S[in.a].i = S[in.b].i / S[in.c].i;
                    break;
                case Op::CAddD: cadd_d(m, S, in); break;
                case Op::CSubD:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = S[in.b].d - S[in.c].d;
                    break;
                case Op::CMulD:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = mul_pinned(S[in.b].d, S[in.c].d);
                    break;
                case Op::CDivD:
                    charge(m, in.pre, 4, 4);
                    S[in.a].d = S[in.b].d / S[in.c].d;
                    break;
                // Float compound targets compute in double, round once.
                case Op::CAddF:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = round_f(add_pinned(S[in.b].d, S[in.c].d));
                    break;
                case Op::CSubF:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = round_f(S[in.b].d - S[in.c].d);
                    break;
                case Op::CMulF:
                    charge(m, in.pre, 1, 1);
                    S[in.a].d = round_f(mul_pinned(S[in.b].d, S[in.c].d));
                    break;
                case Op::CDivF:
                    charge(m, in.pre, 4, 4);
                    S[in.a].d = round_f(S[in.b].d / S[in.c].d);
                    break;
                // ---- comparisons ----
                case Op::LtI:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].i < S[in.c].i;
                    break;
                case Op::LeI:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].i <= S[in.c].i;
                    break;
                case Op::GtI:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].i > S[in.c].i;
                    break;
                case Op::GeI:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].i >= S[in.c].i;
                    break;
                case Op::EqI:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].i == S[in.c].i;
                    break;
                case Op::NeI:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].i != S[in.c].i;
                    break;
                case Op::LtD:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].d < S[in.c].d;
                    break;
                case Op::LeD:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].d <= S[in.c].d;
                    break;
                case Op::GtD:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].d > S[in.c].d;
                    break;
                case Op::GeD:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].d >= S[in.c].d;
                    break;
                case Op::EqD:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].d == S[in.c].d;
                    break;
                case Op::NeD:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = S[in.b].d != S[in.c].d;
                    break;
                case Op::NotB:
                    charge(m, in.pre, kCmpCost);
                    S[in.a].b = !S[in.b].b;
                    break;
                // ---- loops ----
                case Op::LoopEnter:
                    if (profile) {
                        settle(m);
                        flush_charges();
                        LoopStats*& st =
                            loop_cache[static_cast<std::size_t>(in.a)];
                        if (st == nullptr)
                            st = &prof.loops[code.loop_pool
                                                 [static_cast<std::size_t>(
                                                     in.a)]];
                        ++st->entries;
                        loop_stack.push_back(
                            ActiveLoop{st, frames.size()});
                    }
                    break;
                case Op::LoopHead:
                    charge(m, in.pre, kCmpCost);
                    if (S[in.a].i < S[in.b].i) break;
                    ip = base + in.c;
                    continue;
                case Op::LoopTrip:
                    if (profile) ++loop_stack.back().stats->trips;
                    charge(m, 0, kLoopIterCost);
                    break;
                case Op::LoopNext:
                    S[in.a].i += S[in.c].i;
                    charge(m, in.pre, kCmpCost);
                    if (S[in.a].i >= S[in.b].i) break; // on to LoopExit
                    if (profile) ++loop_stack.back().stats->trips;
                    charge(m, 0, kLoopIterCost);
                    ip -= in.back;
                    continue;
                case Op::LoopExit:
                    if (profile) {
                        settle(m);
                        flush_charges();
                        loop_stack.pop_back();
                    }
                    break;
                case Op::StepCheck:
                    if (S[in.a].i <= 0)
                        throw InterpError(
                            code.name_pool[static_cast<std::size_t>(in.b)]);
                    break;
                // ---- buffers ----
                case Op::NewBuf: {
                    const long long n = S[in.b].i;
                    const bc::BufDecl& d =
                        code.buf_pool[static_cast<std::size_t>(in.c)];
                    if (n < 0)
                        throw InterpError("negative array size for '" +
                                          d.name + "'");
                    B[in.a] = std::make_shared<Buffer>(
                        d.elem, static_cast<std::size_t>(n), d.name);
                    break;
                }
                case Op::LoadElemI: {
                    const long long idx = S[in.c].i;
                    access(m, in.pre, B[in.b], idx, /*write=*/false);
                    S[in.a].i = static_cast<long long>(B[in.b]->load(idx));
                    break;
                }
                case Op::LoadElemF: {
                    const long long idx = S[in.c].i;
                    access(m, in.pre, B[in.b], idx, /*write=*/false);
                    // of_float rounds; raw() writers may store unrounded.
                    S[in.a].d = round_f(B[in.b]->load(idx));
                    break;
                }
                case Op::LoadElemD: load_d(m, S, B, in); break;
                case Op::StoreElem: {
                    const long long idx = S[in.b].i;
                    // Throws before the write's charge, like the tree
                    // walker, so no charge folds into a store.
                    B[in.a]->store(idx, S[in.c].d);
                    access(m, 0, B[in.a], idx, /*write=*/true);
                    break;
                }
                // ---- calls ----
                case Op::CallBuiltin: call_builtin(m, S, in); break;
                case Op::CallUser: {
                    const bc::CompiledFunction& callee =
                        code.functions[static_cast<std::size_t>(in.b)];
                    // Attributed at the caller's depth.
                    charge(m, in.pre, kCallCost);
                    settle(m);
                    flush_charges();

                    const std::int32_t* argv =
                        code.arg_pool.data() + in.c;
                    scratch_s.clear();
                    scratch_b.clear();
                    for (std::size_t k = 0; k < callee.params.size(); ++k) {
                        if (callee.params[k].is_pointer)
                            scratch_b.push_back(B[argv[k]]);
                        else
                            scratch_s.push_back(S[argv[k]]);
                    }

                    Frame nf;
                    nf.fn = &callee;
                    nf.ret_pc = static_cast<std::int32_t>(ip - base) + 1;
                    nf.ret_dst = in.a;
                    nf.sbase = sregs.size();
                    nf.bbase = bregs.size();
                    nf.loop_mark = loop_stack.size();
                    if (profile && callee.is_focus)
                        focus_enter(callee, scratch_b);

                    // The tree walker re-validates buffer elem types on
                    // every call; keep the identical check and wording.
                    std::size_t bi = 0;
                    for (const bc::ParamSpec& p : callee.params) {
                        if (!p.is_pointer) continue;
                        if (scratch_b[bi]->elem_type() != p.elem)
                            throw Error("buffer element type mismatch for "
                                        "parameter '" +
                                        p.name + "'");
                        ++bi;
                    }

                    push_frame(nf);
                    fr = &frames.back();
                    base = ip = callee.code.data();
                    S = sregs.data() + fr->sbase;
                    B = bregs.data() + fr->bbase;
                    continue;
                }
                case Op::Ret:
                case Op::RetVoid: {
                    settle(m);
                    flush_charges();
                    const Frame f = *fr;
                    if (profile && f.fn->is_focus) focus.exit(prof);
                    // A return from inside a region closes it, like the
                    // tree walker's exec_for on the Returned path.
                    while (regions.open() &&
                           regions.open_frame() == frames.size())
                        regions.exit(prof);
                    Sreg rv{};
                    if (in.op == Op::Ret) rv = S[in.a];
                    // A return from inside loops unwinds every ActiveLoop
                    // this frame pushed, like the tree walker's per-loop
                    // pops on the Returned path.
                    loop_stack.resize(f.loop_mark);
                    frames.pop_back();
                    sregs.resize(f.sbase);
                    bregs.resize(f.bbase);
                    if (frames.empty())
                        return in.op == Op::Ret ? box(f.fn->ret, rv)
                                                : Value::void_value();
                    fr = &frames.back();
                    base = fr->fn->code.data();
                    ip = base + f.ret_pc;
                    S = sregs.data() + fr->sbase;
                    B = bregs.data() + fr->bbase;
                    if (f.ret_dst >= 0) S[f.ret_dst] = rv;
                    continue;
                }
                case Op::Trap:
                    throw InterpError(
                        code.name_pool[static_cast<std::size_t>(in.a)]);
                // ---- focus regions ----
                case Op::RegionEnter:
                    if (profile) {
                        settle(m);
                        flush_charges();
                        region_enter(static_cast<std::size_t>(in.a), B);
                    }
                    break;
                case Op::RegionExit:
                    if (profile) {
                        settle(m);
                        flush_charges();
                        regions.exit(prof);
                    }
                    break;
                // ---- fused sequences: each member's body, in order ----
                case Op::MulI_AddI_LoadElemD:
                    mul_i(m, S, in);
                    add_i(m, S, ip[1]);
                    load_d(m, S, B, ip[2]);
                    ip += 3;
                    continue;
                case Op::MulI_AddI:
                    mul_i(m, S, in);
                    add_i(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::AddI_LoadElemD:
                    add_i(m, S, in);
                    load_d(m, S, B, ip[1]);
                    ip += 2;
                    continue;
                case Op::MulD_AddD:
                    mul_d(m, S, in);
                    add_d(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::DivD_SubD:
                    div_d(m, S, in);
                    sub_d(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::AddD_DivD:
                    add_d(m, S, in);
                    div_d(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::MulD_CAddD:
                    mul_d(m, S, in);
                    cadd_d(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::LoadElemD_SubD:
                    load_d(m, S, B, in);
                    sub_d(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::SubD_MulD:
                    sub_d(m, S, in);
                    mul_d(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::SubD_CallBuiltin:
                    sub_d(m, S, in);
                    call_builtin(m, S, ip[1]);
                    ip += 2;
                    continue;
                case Op::CallBuiltin_MulD:
                    call_builtin(m, S, in);
                    mul_d(m, S, ip[1]);
                    ip += 2;
                    continue;
            }
            ++ip;
        }
    }
};

Vm::Vm(const ast::Module& module, const sema::TypeInfo& types,
       InterpOptions options)
    : impl_(std::make_unique<Impl>(module, types, std::move(options))) {}

Vm::~Vm() = default;

Value Vm::call(const std::string& name, const std::vector<Arg>& args) {
    const bc::CompiledFunction* fn = impl_->code.find(name);
    if (fn == nullptr)
        throw InterpError("entry function '" + name + "' not found");
    if (args.size() != fn->params.size())
        throw Error("entry call arity mismatch for '" + name + "'");

    const long long steps_before = impl_->steps;
    Value out;
    try {
        out = impl_->call_entry(*fn, args);
    } catch (...) {
        // Keep the partial profile bit-identical to the tree walker's: the
        // charges since the last boundary are still pending.
        impl_->flush_charges();
#ifdef PSAFLOW_OP_COUNTER
        impl_->op_counter.flush();
#endif
        throw;
    }
#ifdef PSAFLOW_OP_COUNTER
    impl_->op_counter.flush();
#endif
    trace::Registry::current().count(
        "interp.steps",
        static_cast<std::uint64_t>(impl_->steps - steps_before));
    return out;
}

const ExecutionProfile& Vm::profile() const { return impl_->prof; }

} // namespace psaflow::interp
