#include "interp/vm.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "interp/bytecode.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace psaflow::interp {

namespace {

// The cost-unit weights, duplicated from interpreter.cpp byte for byte: the
// two engines must charge identical amounts at identical points.
constexpr double kIntOpCost = 1.0;
constexpr double kCmpCost = 1.0;
constexpr double kMemCost = 2.0;
constexpr double kLoopIterCost = 2.0;
constexpr double kAssignCost = 1.0;
constexpr double kCallCost = 8.0;

/// Frames are zero-initialized on allocation, so reads are always defined
/// even for (sema-impossible) use-before-declaration.
using bc::Sreg;

double round_f(double v) {
    return static_cast<double>(static_cast<float>(v));
}

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
        // Focus snapshots (depth-1 focus calls only), mirroring the locals
        // of the tree walker's call_function.
        double cost_before = 0.0;
        double flops_before = 0.0;
        double call_flops_before = 0.0;
        double bytes_before = 0.0;
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

    int focus_depth = 0;
    /// Buffer id -> prof.focus_buffers index. Focus functions have a
    /// handful of pointer params, so a flat scan beats hashing on the
    /// per-element-access path.
    std::vector<std::pair<int, std::size_t>> focus_buffer_index;

    long long steps = 0;

    // Charges not yet attributed to the active-loop stack. Every cost
    // weight, flop count and byte count is a small integer, so double
    // addition is exact here and batching at loop/call boundaries is
    // bit-identical to the tree walker's per-charge accumulation — while
    // turning the O(active loops) walk per instruction into O(1).
    double pend_cost = 0.0;
    double pend_flops = 0.0;
    double pend_bytes = 0.0;

    // Per-call arg staging (the dispatch loop is not reentrant).
    std::vector<Sreg> scratch_s;
    std::vector<BufferPtr> scratch_b;
    std::vector<int> scratch_ids; ///< bind_focus's aliasing probe

    Impl(const ast::Module& m, const sema::TypeInfo& t, InterpOptions o)
        : options(std::move(o)),
          code(bc::compile(m, t, options.focus_function)),
          loop_cache(code.loop_pool.size(), nullptr) {}

    // ---- bookkeeping (identical to the tree walker's) -----------------

    void charge(double cost, double flops = 0.0, double bytes = 0.0) {
        if (++steps > options.max_steps)
            throw InterpError("execution exceeded max_steps (runaway loop?)");
        if ((steps & 0x1fff) == 0) poll_cancellation();
        if (!options.profile) return;
        pend_cost += cost;
        pend_flops += flops;
        pend_bytes += bytes;
    }

    /// Fold the pending charges into the profile totals and every active
    /// loop. Must run before anything that reads the totals (focus
    /// snapshots) or changes what "active" means — a loop_stack push/pop or
    /// a frames push/pop (self_cost attribution keys on the frame depth the
    /// charges happened at).
    void flush_charges() {
        if (pend_cost == 0.0 && pend_flops == 0.0 && pend_bytes == 0.0)
            return;
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
        pend_cost = 0.0;
        pend_flops = 0.0;
        pend_bytes = 0.0;
    }

    void note_access(const BufferPtr& buf, long long index, bool write) {
        charge(kMemCost, 0.0, buf->elem_bytes());
        if (!options.profile || focus_depth != 1) return;
        const int id = buf->id();
        for (const auto& [bid, slot] : focus_buffer_index) {
            if (bid != id) continue;
            BufferAccess& acc = prof.focus_buffers[slot];
            if (write) {
                acc.min_write = std::min(acc.min_write, index);
                acc.max_write = std::max(acc.max_write, index);
                ++acc.writes;
            } else {
                acc.min_read = std::min(acc.min_read, index);
                acc.max_read = std::max(acc.max_read, index);
                ++acc.reads;
            }
            return;
        }
    }

    // ---- focus tracking ------------------------------------------------

    /// Mirrors bind_focus_buffers: pointer params in declaration order,
    /// aliasing detected by buffer identity.
    void bind_focus(const bc::CompiledFunction& fn,
                    const std::vector<BufferPtr>& bufs) {
        std::vector<int>& seen = scratch_ids;
        seen.clear();
        std::size_t bi = 0;
        for (const bc::ParamSpec& p : fn.params) {
            if (!p.is_pointer) continue;
            const BufferPtr& b = bufs[bi++];
            const int id = b->id();
            if (std::find(seen.begin(), seen.end(), id) != seen.end())
                prof.focus_args_alias = true;
            seen.push_back(id);
            bool known = false;
            for (const auto& [bid, slot] : focus_buffer_index)
                if (bid == id) known = true;
            if (!known) {
                BufferAccess acc;
                acc.buffer_name = p.name;
                acc.elem_bytes = b->elem_bytes();
                focus_buffer_index.emplace_back(id,
                                                prof.focus_buffers.size());
                prof.focus_buffers.push_back(acc);
            }
        }
    }

    /// Focus-entry bookkeeping shared by entry and nested calls; runs after
    /// the kCallCost charge and before parameter binding, exactly like the
    /// tree walker.
    void focus_enter(const bc::CompiledFunction& fn, Frame& f,
                     const std::vector<BufferPtr>& bufs) {
        ++focus_depth;
        if (focus_depth != 1) return;
        prof.focus_function = fn.name;
        ++prof.focus_calls;
        f.cost_before = prof.total_cost;
        f.flops_before = prof.total_flops;
        f.call_flops_before = prof.total_call_flops;
        f.bytes_before = prof.total_mem_bytes;
        bind_focus(fn, bufs);
    }

    void focus_exit(const Frame& f) {
        if (focus_depth == 1) {
            prof.focus_cost += prof.total_cost - f.cost_before;
            prof.focus_flops += prof.total_flops - f.flops_before;
            prof.focus_call_flops +=
                prof.total_call_flops - f.call_flops_before;
            prof.focus_mem_bytes += prof.total_mem_bytes - f.bytes_before;
        }
        --focus_depth;
    }

    // ---- entry ---------------------------------------------------------

    Value call_entry(const bc::CompiledFunction& fn,
                     const std::vector<Arg>& args) {
        charge(kCallCost);
        flush_charges(); // before the focus snapshot reads the totals
        if (args.size() != fn.params.size())
            throw Error("internal: call arity mismatch for '" + fn.name + "'");

        Frame f;
        f.fn = &fn;
        f.sbase = sregs.size();
        f.bbase = bregs.size();
        f.loop_mark = loop_stack.size();

        if (options.profile && fn.is_focus) {
            // Focus binding sees the buffer args only (a scalar passed for
            // a pointer param is skipped here and rejected just below).
            std::vector<BufferPtr> bufs;
            for (std::size_t i = 0; i < fn.params.size(); ++i) {
                if (!fn.params[i].is_pointer) continue;
                if (const auto* b = std::get_if<BufferPtr>(&args[i]))
                    bufs.push_back(*b);
            }
            focus_enter(fn, f, bufs);
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

    // ---- the dispatch loop ---------------------------------------------

    Value dispatch() {
        using bc::Op;
        const Frame* fr = &frames.back();
        const bc::Insn* ip = fr->fn->code.data();
        std::int32_t pc = 0;
        Sreg* S = sregs.data() + fr->sbase;
        BufferPtr* B = bregs.data() + fr->bbase;

        for (;;) {
            const bc::Insn in = ip[pc++];
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
                case Op::Jmp: pc = in.a; break;
                case Op::JmpF:
                    if (!S[in.a].b) pc = in.b;
                    break;
                case Op::JmpT:
                    if (S[in.a].b) pc = in.b;
                    break;
                // ---- standalone charges ----
                case Op::ChargeCmp: charge(kCmpCost); break;
                case Op::ChargeAssign: charge(kAssignCost); break;
                // ---- int arithmetic ----
                case Op::AddI:
                    charge(kIntOpCost);
                    S[in.a].i = S[in.b].i + S[in.c].i;
                    break;
                case Op::SubI:
                    charge(kIntOpCost);
                    S[in.a].i = S[in.b].i - S[in.c].i;
                    break;
                case Op::MulI:
                    charge(kIntOpCost);
                    S[in.a].i = S[in.b].i * S[in.c].i;
                    break;
                case Op::DivI:
                    charge(kIntOpCost);
                    if (S[in.c].i == 0)
                        throw InterpError("integer division by zero");
                    S[in.a].i = S[in.b].i / S[in.c].i;
                    break;
                case Op::ModI:
                    charge(kIntOpCost);
                    if (S[in.c].i == 0)
                        throw InterpError("integer modulo by zero");
                    S[in.a].i = S[in.b].i % S[in.c].i;
                    break;
                case Op::NegI:
                    charge(1.0);
                    S[in.a].i = -S[in.b].i;
                    break;
                case Op::IncI: S[in.a].i = S[in.b].i + S[in.c].i; break;
                // ---- double arithmetic ----
                case Op::AddD:
                    charge(1.0, 1.0);
                    S[in.a].d = add_pinned(S[in.b].d, S[in.c].d);
                    break;
                case Op::SubD:
                    charge(1.0, 1.0);
                    S[in.a].d = S[in.b].d - S[in.c].d;
                    break;
                case Op::MulD:
                    charge(1.0, 1.0);
                    S[in.a].d = mul_pinned(S[in.b].d, S[in.c].d);
                    break;
                case Op::DivD:
                    charge(4.0, 4.0);
                    S[in.a].d = S[in.b].d / S[in.c].d;
                    break;
                case Op::NegD:
                    charge(1.0, 1.0);
                    S[in.a].d = -S[in.b].d;
                    break;
                // ---- float arithmetic (compute in float) ----
                case Op::AddF:
                    charge(1.0, 1.0);
                    S[in.a].d = static_cast<double>(
                        add_pinned(static_cast<float>(S[in.b].d),
                                   static_cast<float>(S[in.c].d)));
                    break;
                case Op::SubF:
                    charge(1.0, 1.0);
                    S[in.a].d = static_cast<double>(
                        static_cast<float>(S[in.b].d) -
                        static_cast<float>(S[in.c].d));
                    break;
                case Op::MulF:
                    charge(1.0, 1.0);
                    S[in.a].d = static_cast<double>(
                        mul_pinned(static_cast<float>(S[in.b].d),
                                   static_cast<float>(S[in.c].d)));
                    break;
                case Op::DivF:
                    charge(4.0, 4.0);
                    S[in.a].d = static_cast<double>(
                        static_cast<float>(S[in.b].d) /
                        static_cast<float>(S[in.c].d));
                    break;
                case Op::NegF:
                    charge(1.0, 1.0);
                    S[in.a].d = round_f(-S[in.b].d);
                    break;
                // ---- compound-assign arithmetic (`combined`) ----
                case Op::CAddI:
                    charge(1.0);
                    S[in.a].i = S[in.b].i + S[in.c].i;
                    break;
                case Op::CSubI:
                    charge(1.0);
                    S[in.a].i = S[in.b].i - S[in.c].i;
                    break;
                case Op::CMulI:
                    charge(1.0);
                    S[in.a].i = S[in.b].i * S[in.c].i;
                    break;
                case Op::CDivI:
                    charge(4.0);
                    if (S[in.c].i == 0)
                        throw InterpError("integer division by zero");
                    S[in.a].i = S[in.b].i / S[in.c].i;
                    break;
                case Op::CAddD:
                    charge(1.0, 1.0);
                    S[in.a].d = add_pinned(S[in.b].d, S[in.c].d);
                    break;
                case Op::CSubD:
                    charge(1.0, 1.0);
                    S[in.a].d = S[in.b].d - S[in.c].d;
                    break;
                case Op::CMulD:
                    charge(1.0, 1.0);
                    S[in.a].d = mul_pinned(S[in.b].d, S[in.c].d);
                    break;
                case Op::CDivD:
                    charge(4.0, 4.0);
                    S[in.a].d = S[in.b].d / S[in.c].d;
                    break;
                // Float compound targets compute in double, round once.
                case Op::CAddF:
                    charge(1.0, 1.0);
                    S[in.a].d = round_f(add_pinned(S[in.b].d, S[in.c].d));
                    break;
                case Op::CSubF:
                    charge(1.0, 1.0);
                    S[in.a].d = round_f(S[in.b].d - S[in.c].d);
                    break;
                case Op::CMulF:
                    charge(1.0, 1.0);
                    S[in.a].d = round_f(mul_pinned(S[in.b].d, S[in.c].d));
                    break;
                case Op::CDivF:
                    charge(4.0, 4.0);
                    S[in.a].d = round_f(S[in.b].d / S[in.c].d);
                    break;
                // ---- comparisons ----
                case Op::LtI:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].i < S[in.c].i;
                    break;
                case Op::LeI:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].i <= S[in.c].i;
                    break;
                case Op::GtI:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].i > S[in.c].i;
                    break;
                case Op::GeI:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].i >= S[in.c].i;
                    break;
                case Op::EqI:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].i == S[in.c].i;
                    break;
                case Op::NeI:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].i != S[in.c].i;
                    break;
                case Op::LtD:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].d < S[in.c].d;
                    break;
                case Op::LeD:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].d <= S[in.c].d;
                    break;
                case Op::GtD:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].d > S[in.c].d;
                    break;
                case Op::GeD:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].d >= S[in.c].d;
                    break;
                case Op::EqD:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].d == S[in.c].d;
                    break;
                case Op::NeD:
                    charge(kCmpCost);
                    S[in.a].b = S[in.b].d != S[in.c].d;
                    break;
                case Op::NotB:
                    charge(kCmpCost);
                    S[in.a].b = !S[in.b].b;
                    break;
                // ---- loops ----
                case Op::LoopEnter:
                    if (options.profile) {
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
                    charge(kCmpCost);
                    if (S[in.a].i >= S[in.b].i) pc = in.c;
                    break;
                case Op::LoopTrip:
                    if (options.profile) ++loop_stack.back().stats->trips;
                    charge(kLoopIterCost);
                    break;
                case Op::LoopExit:
                    if (options.profile) {
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
                    note_access(B[in.b], idx, /*write=*/false);
                    S[in.a].i = static_cast<long long>(B[in.b]->load(idx));
                    break;
                }
                case Op::LoadElemF: {
                    const long long idx = S[in.c].i;
                    note_access(B[in.b], idx, /*write=*/false);
                    // of_float rounds; raw() writers may store unrounded.
                    S[in.a].d = round_f(B[in.b]->load(idx));
                    break;
                }
                case Op::LoadElemD: {
                    const long long idx = S[in.c].i;
                    note_access(B[in.b], idx, /*write=*/false);
                    S[in.a].d = B[in.b]->load(idx);
                    break;
                }
                case Op::StoreElem: {
                    const long long idx = S[in.b].i;
                    B[in.a]->store(idx, S[in.c].d); // throws before the
                    note_access(B[in.a], idx, true); // write charge, like
                    break;                           // the tree walker
                }
                // ---- calls ----
                case Op::CallBuiltin: {
                    const sema::BuiltinInfo* b =
                        code.builtin_pool[static_cast<std::size_t>(in.b)];
                    double argv[4];
                    for (int k = 0; k < b->arity; ++k)
                        argv[k] =
                            S[code.arg_pool[static_cast<std::size_t>(
                                  in.c + k)]]
                                .d;
                    charge(b->flop_cost, b->flop_cost);
                    if (options.profile)
                        prof.total_call_flops += b->flop_cost;
                    const double out = sema::eval_builtin(
                        *b, std::span<const double>(
                                argv, static_cast<std::size_t>(b->arity)));
                    S[in.a].d =
                        b->result == ast::Type::Float ? round_f(out) : out;
                    break;
                }
                case Op::CallUser: {
                    const bc::CompiledFunction& callee =
                        code.functions[static_cast<std::size_t>(in.b)];
                    charge(kCallCost); // attributed at the caller's depth
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
                    nf.ret_pc = pc;
                    nf.ret_dst = in.a;
                    nf.sbase = sregs.size();
                    nf.bbase = bregs.size();
                    nf.loop_mark = loop_stack.size();
                    if (options.profile && callee.is_focus)
                        focus_enter(callee, nf, scratch_b);

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
                    ip = callee.code.data();
                    pc = 0;
                    S = sregs.data() + fr->sbase;
                    B = bregs.data() + fr->bbase;
                    break;
                }
                case Op::Ret:
                case Op::RetVoid: {
                    flush_charges();
                    const Frame f = *fr;
                    if (options.profile && f.fn->is_focus) focus_exit(f);
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
                    ip = fr->fn->code.data();
                    pc = f.ret_pc;
                    S = sregs.data() + fr->sbase;
                    B = bregs.data() + fr->bbase;
                    if (f.ret_dst >= 0) S[f.ret_dst] = rv;
                    break;
                }
                case Op::Trap:
                    throw InterpError(
                        code.name_pool[static_cast<std::size_t>(in.a)]);
            }
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
        throw;
    }
    trace::Registry::current().count(
        "interp.steps",
        static_cast<std::uint64_t>(impl_->steps - steps_before));
    return out;
}

const ExecutionProfile& Vm::profile() const { return impl_->prof; }

} // namespace psaflow::interp
