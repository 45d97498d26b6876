#include "interp/interpreter.hpp"

#include <atomic>
#include <unordered_map>

#include "interp/focus.hpp"
#include "interp/vm.hpp"
#include "sema/builtins.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace psaflow::interp {

namespace {

using namespace psaflow::ast;

// Deterministic cost-unit weights. Only relative magnitudes matter: hotspot
// detection ranks loops, and the CPU reference time in the perf models is
// derived from flop/byte counts, not from these units.
constexpr double kIntOpCost = 1.0;
constexpr double kCmpCost = 1.0;
constexpr double kMemCost = 2.0;
constexpr double kLoopIterCost = 2.0;
constexpr double kAssignCost = 1.0;
constexpr double kCallCost = 8.0;

int flop_weight(BinaryOp op) {
    switch (op) {
        case BinaryOp::Div: return 4;
        default: return 1;
    }
}

} // namespace

int Buffer::next_id() {
    // Atomic: buffers are allocated from concurrent flow-engine paths.
    static std::atomic<int> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Buffer::throw_out_of_bounds(long long index) const {
    throw InterpError("buffer '" + name_ + "' index " + std::to_string(index) +
                      " out of bounds [0, " + std::to_string(data_.size()) +
                      ")");
}

struct Interpreter::Impl {
    const Module& module;
    const sema::TypeInfo& types;
    InterpOptions options;
    ExecutionProfile prof;

    using Slot = std::variant<Value, BufferPtr>;
    using Frame = std::unordered_map<std::string, Slot>;
    std::vector<Frame> frames;

    // Loop attribution stack: every charge is added to all active loops;
    // `frame` records the call depth the loop belongs to so self-cost can
    // exclude work done inside called functions.
    struct ActiveLoop {
        LoopStats* stats;
        std::size_t frame;
    };
    std::vector<ActiveLoop> loop_stack;

    FocusTracker focus; ///< the focus function's calls

    // Focus regions (options.region_focus), by loop node id.
    struct Region {
        RegionSpec spec;
        std::size_t index; ///< RegionFocus region number
    };
    std::unordered_map<ast::Node::Id, Region> regions;
    RegionFocus region_focus{0};

    long long steps = 0;

    enum class Flow { Normal, Returned };
    Value return_value;

    Impl(const Module& m, const sema::TypeInfo& t, InterpOptions o)
        : module(m), types(t), options(std::move(o)) {
        focus.stats = &prof.focus;
        if (!options.profile || !options.region_focus) return;
        for (const auto& fn : module.functions)
            for (RegionSpec& spec : focus_regions(*fn, types)) {
                const ast::Node::Id id = spec.loop->id;
                regions.emplace(id, Region{std::move(spec), regions.size()});
            }
        region_focus = RegionFocus(regions.size());
    }

    // ---- bookkeeping -------------------------------------------------------

    void charge(double cost, double flops = 0.0, double bytes = 0.0) {
        if (++steps > options.max_steps)
            throw InterpError("execution exceeded max_steps (runaway loop?)");
        // Cooperative cancellation: a serving deadline must be able to
        // interrupt a long profiling run, so poll the ambient token every
        // few thousand steps (a TLS read; the clock is only consulted when
        // a deadline is armed).
        if ((steps & 0x1fff) == 0) poll_cancellation();
        if (!options.profile) return;
        prof.total_cost += cost;
        prof.total_flops += flops;
        prof.total_mem_bytes += bytes;
        for (ActiveLoop& al : loop_stack) {
            al.stats->cost += cost;
            al.stats->flops += flops;
            al.stats->mem_bytes += bytes;
            if (al.frame == frames.size()) al.stats->self_cost += cost;
        }
    }

    void note_access(const BufferPtr& buf, long long index, bool write) {
        charge(kMemCost, 0.0, buf->elem_bytes());
        if (!options.profile) return;
        focus.note(buf->id(), index, write);
        if (region_focus.open()) region_focus.note(buf->id(), index, write);
    }

    // ---- environment -------------------------------------------------------

    Frame& frame() { return frames.back(); }

    Slot& lookup(const std::string& name, SrcLoc loc) {
        auto it = frame().find(name);
        if (it == frame().end())
            throw InterpError(to_string(loc) + ": unbound name '" + name + "'");
        return it->second;
    }

    Value scalar(const std::string& name, SrcLoc loc) {
        Slot& slot = lookup(name, loc);
        auto* v = std::get_if<Value>(&slot);
        if (v == nullptr)
            throw InterpError(to_string(loc) + ": '" + name +
                              "' is an array, not a scalar");
        return *v;
    }

    BufferPtr buffer(const std::string& name, SrcLoc loc) {
        Slot& slot = lookup(name, loc);
        auto* b = std::get_if<BufferPtr>(&slot);
        if (b == nullptr)
            throw InterpError(to_string(loc) + ": '" + name +
                              "' is a scalar, not an array");
        return *b;
    }

    // ---- calls -------------------------------------------------------------

    Value call_function(const Function& fn, std::vector<Slot> arg_slots) {
        charge(kCallCost);
        if (arg_slots.size() != fn.params.size())
            throw Error("internal: call arity mismatch for '" + fn.name + "'");

        const bool is_focus =
            options.profile && fn.name == options.focus_function;
        if (is_focus && focus.enter(prof)) {
            prof.focus_function = fn.name;
            bind_focus_buffers(fn, arg_slots);
        }

        Frame new_frame;
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            const Param& p = *fn.params[i];
            if (p.type.is_pointer) {
                auto* b = std::get_if<BufferPtr>(&arg_slots[i]);
                if (b == nullptr)
                    throw Error("array argument expected for parameter '" +
                                p.name + "'");
                if ((*b)->elem_type() != p.type.elem)
                    throw Error("buffer element type mismatch for parameter '" +
                                p.name + "'");
                new_frame.emplace(p.name, *b);
            } else {
                auto* v = std::get_if<Value>(&arg_slots[i]);
                if (v == nullptr)
                    throw Error("scalar argument expected for parameter '" +
                                p.name + "'");
                new_frame.emplace(p.name, v->convert_to(p.type.elem));
            }
        }

        frames.push_back(std::move(new_frame));
        // Loops of the callee attribute to the callee's own stack only; the
        // caller's enclosing loops still accumulate (stack is not cleared).
        return_value = Value::void_value();
        exec_block(*fn.body);
        Value result = return_value;
        frames.pop_back();

        if (is_focus) focus.exit(prof);

        if (fn.ret != Type::Void) return result.convert_to(fn.ret);
        return Value::void_value();
    }

    void bind_focus_buffers(const Function& fn, const std::vector<Slot>& args) {
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            if (!fn.params[i]->type.is_pointer) continue;
            const auto* b = std::get_if<BufferPtr>(&args[i]);
            if (b == nullptr) continue;
            focus.bind((*b)->id(), (*b)->elem_bytes(), fn.params[i]->name);
        }
    }

    /// A region opens where a kernel extracted from its loop would take
    /// its focus snapshot: after everything before the loop, before the
    /// loop's init. The free arrays bind as that kernel's pointer
    /// parameters would.
    void region_enter(const Region& region) {
        if (!region_focus.enter(region.index,
                                prof.regions[region.spec.loop->id], prof,
                                frames.size()))
            return;
        for (const std::string& name : region.spec.buffers) {
            auto it = frame().find(name);
            if (it == frame().end()) continue;
            if (const auto* b = std::get_if<BufferPtr>(&it->second))
                region_focus.bind((*b)->id(), (*b)->elem_bytes(), name);
        }
    }

    // ---- statements -------------------------------------------------------

    Flow exec_block(const Block& block) {
        for (const auto& s : block.stmts) {
            if (exec_stmt(*s) == Flow::Returned) return Flow::Returned;
        }
        return Flow::Normal;
    }

    Flow exec_stmt(const Stmt& stmt) {
        switch (stmt.kind()) {
            case NodeKind::Block:
                return exec_block(static_cast<const Block&>(stmt));
            case NodeKind::VarDecl: {
                const auto& d = static_cast<const VarDecl&>(stmt);
                if (d.is_array) {
                    const long long n = eval(*d.array_size).as_int();
                    if (n < 0)
                        throw InterpError("negative array size for '" + d.name +
                                          "'");
                    frame()[d.name] = std::make_shared<Buffer>(
                        d.elem, static_cast<std::size_t>(n), d.name);
                } else {
                    Value init = d.init ? eval(*d.init) : Value::of_int(0);
                    frame()[d.name] = init.convert_to(d.elem);
                }
                charge(kAssignCost);
                return Flow::Normal;
            }
            case NodeKind::Assign:
                exec_assign(static_cast<const Assign&>(stmt));
                return Flow::Normal;
            case NodeKind::If: {
                const auto& i = static_cast<const If&>(stmt);
                charge(kCmpCost);
                if (eval(*i.cond).as_bool()) return exec_block(*i.then_body);
                if (i.else_body) return exec_block(*i.else_body);
                return Flow::Normal;
            }
            case NodeKind::For:
                return exec_for(static_cast<const For&>(stmt));
            case NodeKind::While: {
                const auto& w = static_cast<const While&>(stmt);
                while (true) {
                    charge(kCmpCost);
                    if (!eval(*w.cond).as_bool()) return Flow::Normal;
                    if (exec_block(*w.body) == Flow::Returned)
                        return Flow::Returned;
                }
            }
            case NodeKind::Return: {
                const auto& r = static_cast<const Return&>(stmt);
                return_value =
                    r.value ? eval(*r.value) : Value::void_value();
                return Flow::Returned;
            }
            case NodeKind::ExprStmt: {
                const auto& e = static_cast<const ExprStmt&>(stmt);
                (void)eval(*e.expr);
                return Flow::Normal;
            }
            default:
                throw InterpError("unexpected statement node in interpreter");
        }
    }

    Flow exec_for(const For& loop) {
        Region* region = nullptr;
        if (!regions.empty()) {
            auto it = regions.find(loop.id);
            if (it != regions.end()) region = &it->second;
        }
        if (region != nullptr) region_enter(*region);

        LoopStats* stats = nullptr;
        if (options.profile) {
            stats = &prof.loops[loop.id];
            ++stats->entries;
            loop_stack.push_back(ActiveLoop{stats, frames.size()});
        }

        const long long init = eval(*loop.init).as_int();
        frame()[loop.var] = Value::of_int(init);

        Flow flow = Flow::Normal;
        while (true) {
            const long long i = scalar(loop.var, loop.loc).as_int();
            const long long limit = eval(*loop.limit).as_int();
            charge(kCmpCost);
            if (i >= limit) break;
            if (stats != nullptr) ++stats->trips;
            charge(kLoopIterCost);
            if (exec_block(*loop.body) == Flow::Returned) {
                flow = Flow::Returned;
                break;
            }
            const long long step = eval(*loop.step).as_int();
            if (step <= 0)
                throw InterpError(to_string(loop.loc) +
                                  ": for-loop step must be positive");
            frame()[loop.var] = Value::of_int(i + step);
        }

        if (options.profile) loop_stack.pop_back();
        if (region != nullptr) region_focus.exit(prof);
        return flow;
    }

    void exec_assign(const Assign& a) {
        charge(kAssignCost);
        const Value rhs = eval(*a.value);

        auto combined = [&](Value current) -> Value {
            if (a.op == AssignOp::Set) return rhs;
            const Type t = types.type_of(*a.target);
            charge(a.op == AssignOp::Div ? 4.0 : 1.0,
                   is_floating(t) ? (a.op == AssignOp::Div ? 4.0 : 1.0) : 0.0);
            if (t == Type::Int) {
                const long long l = current.as_int();
                const long long r = rhs.as_int();
                switch (a.op) {
                    case AssignOp::Add: return Value::of_int(l + r);
                    case AssignOp::Sub: return Value::of_int(l - r);
                    case AssignOp::Mul: return Value::of_int(l * r);
                    case AssignOp::Div:
                        if (r == 0) throw InterpError("integer division by zero");
                        return Value::of_int(l / r);
                    default: break;
                }
            }
            const double l = current.as_double();
            const double r = rhs.as_double();
            double out = 0.0;
            switch (a.op) {
                case AssignOp::Add: out = add_pinned(l, r); break;
                case AssignOp::Sub: out = l - r; break;
                case AssignOp::Mul: out = mul_pinned(l, r); break;
                case AssignOp::Div: out = l / r; break;
                default: break;
            }
            return t == Type::Float ? Value::of_float(out)
                                    : Value::of_double(out);
        };

        if (const auto* id = dyn_cast<Ident>(a.target.get())) {
            Slot& slot = lookup(id->name, id->loc);
            auto* v = std::get_if<Value>(&slot);
            if (v == nullptr)
                throw InterpError("cannot assign to array '" + id->name + "'");
            const Type declared = types.type_of(*a.target);
            *v = combined(*v).convert_to(declared);
            return;
        }

        const auto& ix = static_cast<const Index&>(*a.target);
        const auto& base = static_cast<const Ident&>(*ix.base);
        BufferPtr buf = buffer(base.name, base.loc);
        const long long index = eval(*ix.index).as_int();
        if (a.op != AssignOp::Set) {
            note_access(buf, index, /*write=*/false);
            Value current = buf->elem_type() == Type::Int
                                ? Value::of_int(static_cast<long long>(
                                      buf->load(index)))
                                : (buf->elem_type() == Type::Float
                                       ? Value::of_float(buf->load(index))
                                       : Value::of_double(buf->load(index)));
            buf->store(index, combined(current).as_double());
        } else {
            buf->store(index, rhs.as_double());
        }
        note_access(buf, index, /*write=*/true);
    }

    // ---- expressions -------------------------------------------------------

    Value eval(const Expr& e) {
        switch (e.kind()) {
            case NodeKind::IntLit:
                return Value::of_int(static_cast<const IntLit&>(e).value);
            case NodeKind::FloatLit: {
                const auto& lit = static_cast<const FloatLit&>(e);
                return lit.single ? Value::of_float(lit.value)
                                  : Value::of_double(lit.value);
            }
            case NodeKind::BoolLit:
                return Value::of_bool(static_cast<const BoolLit&>(e).value);
            case NodeKind::Ident: {
                const auto& id = static_cast<const Ident&>(e);
                return scalar(id.name, id.loc);
            }
            case NodeKind::Unary: {
                const auto& u = static_cast<const Unary&>(e);
                const Value v = eval(*u.operand);
                if (u.op == UnaryOp::Not) {
                    charge(kCmpCost);
                    return Value::of_bool(!v.as_bool());
                }
                const Type t = types.type_of(e);
                charge(1.0, is_floating(t) ? 1.0 : 0.0);
                if (t == Type::Int) return Value::of_int(-v.as_int());
                return t == Type::Float ? Value::of_float(-v.as_double())
                                        : Value::of_double(-v.as_double());
            }
            case NodeKind::Binary:
                return eval_binary(static_cast<const Binary&>(e));
            case NodeKind::Call:
                return eval_call(static_cast<const Call&>(e));
            case NodeKind::Index: {
                const auto& ix = static_cast<const Index&>(e);
                const auto& base = static_cast<const Ident&>(*ix.base);
                BufferPtr buf = buffer(base.name, base.loc);
                const long long index = eval(*ix.index).as_int();
                note_access(buf, index, /*write=*/false);
                const double raw = buf->load(index);
                switch (buf->elem_type()) {
                    case Type::Int:
                        return Value::of_int(static_cast<long long>(raw));
                    case Type::Float: return Value::of_float(raw);
                    default: return Value::of_double(raw);
                }
            }
            default:
                throw InterpError("unexpected expression node in interpreter");
        }
    }

    Value eval_binary(const Binary& b) {
        // Short-circuit logical operators evaluate lazily, like C.
        if (b.op == BinaryOp::And) {
            charge(kCmpCost);
            if (!eval(*b.lhs).as_bool()) return Value::of_bool(false);
            return Value::of_bool(eval(*b.rhs).as_bool());
        }
        if (b.op == BinaryOp::Or) {
            charge(kCmpCost);
            if (eval(*b.lhs).as_bool()) return Value::of_bool(true);
            return Value::of_bool(eval(*b.rhs).as_bool());
        }

        const Value l = eval(*b.lhs);
        const Value r = eval(*b.rhs);

        if (is_comparison(b.op)) {
            charge(kCmpCost);
            const bool both_int =
                l.type() == Type::Int && r.type() == Type::Int;
            if (both_int) {
                const long long a = l.as_int();
                const long long c = r.as_int();
                switch (b.op) {
                    case BinaryOp::Lt: return Value::of_bool(a < c);
                    case BinaryOp::Le: return Value::of_bool(a <= c);
                    case BinaryOp::Gt: return Value::of_bool(a > c);
                    case BinaryOp::Ge: return Value::of_bool(a >= c);
                    case BinaryOp::Eq: return Value::of_bool(a == c);
                    default: return Value::of_bool(a != c);
                }
            }
            const double a = l.as_double();
            const double c = r.as_double();
            switch (b.op) {
                case BinaryOp::Lt: return Value::of_bool(a < c);
                case BinaryOp::Le: return Value::of_bool(a <= c);
                case BinaryOp::Gt: return Value::of_bool(a > c);
                case BinaryOp::Ge: return Value::of_bool(a >= c);
                case BinaryOp::Eq: return Value::of_bool(a == c);
                default: return Value::of_bool(a != c);
            }
        }

        const Type t = types.type_of(b);
        if (t == Type::Int) {
            charge(kIntOpCost);
            const long long a = l.as_int();
            const long long c = r.as_int();
            switch (b.op) {
                case BinaryOp::Add: return Value::of_int(a + c);
                case BinaryOp::Sub: return Value::of_int(a - c);
                case BinaryOp::Mul: return Value::of_int(a * c);
                case BinaryOp::Div:
                    if (c == 0) throw InterpError("integer division by zero");
                    return Value::of_int(a / c);
                case BinaryOp::Mod:
                    if (c == 0) throw InterpError("integer modulo by zero");
                    return Value::of_int(a % c);
                default: break;
            }
            throw InterpError("bad int binary op");
        }

        const double w = flop_weight(b.op);
        charge(w, w);
        if (t == Type::Float) {
            // Single-precision arithmetic: compute in float.
            const float a = static_cast<float>(l.as_double());
            const float c = static_cast<float>(r.as_double());
            switch (b.op) {
                case BinaryOp::Add: return Value::of_float(add_pinned(a, c));
                case BinaryOp::Sub: return Value::of_float(a - c);
                case BinaryOp::Mul: return Value::of_float(mul_pinned(a, c));
                case BinaryOp::Div: return Value::of_float(a / c);
                default: break;
            }
            throw InterpError("bad float binary op");
        }
        const double a = l.as_double();
        const double c = r.as_double();
        switch (b.op) {
            case BinaryOp::Add: return Value::of_double(add_pinned(a, c));
            case BinaryOp::Sub: return Value::of_double(a - c);
            case BinaryOp::Mul: return Value::of_double(mul_pinned(a, c));
            case BinaryOp::Div: return Value::of_double(a / c);
            default: break;
        }
        throw InterpError("bad double binary op");
    }

    Value eval_call(const Call& c) {
        if (const sema::BuiltinInfo* b = sema::find_builtin(c.callee)) {
            std::vector<double> args;
            args.reserve(c.args.size());
            for (const auto& a : c.args) args.push_back(eval(*a).as_double());
            charge(b->flop_cost, b->flop_cost);
            if (options.profile) prof.total_call_flops += b->flop_cost;
            const double out = sema::eval_builtin(*b, args);
            return b->result == Type::Float ? Value::of_float(out)
                                            : Value::of_double(out);
        }

        const Function* fn = module.find_function(c.callee);
        if (fn == nullptr)
            throw InterpError("call to unknown function '" + c.callee + "'");

        std::vector<Slot> arg_slots;
        arg_slots.reserve(c.args.size());
        for (std::size_t i = 0; i < c.args.size(); ++i) {
            if (fn->params[i]->type.is_pointer) {
                const auto& id = static_cast<const Ident&>(*c.args[i]);
                arg_slots.emplace_back(buffer(id.name, id.loc));
            } else {
                arg_slots.emplace_back(eval(*c.args[i]));
            }
        }
        return call_function(*fn, std::move(arg_slots));
    }
};

Interpreter::Interpreter(const ast::Module& module,
                         const sema::TypeInfo& types, InterpOptions options)
    : impl_(std::make_unique<Impl>(module, types, std::move(options))) {}

Interpreter::~Interpreter() = default;

Value Interpreter::call(const std::string& name, const std::vector<Arg>& args) {
    const Function* fn = impl_->module.find_function(name);
    if (fn == nullptr)
        throw InterpError("entry function '" + name + "' not found");
    if (args.size() != fn->params.size())
        throw Error("entry call arity mismatch for '" + name + "'");

    std::vector<Impl::Slot> slots;
    slots.reserve(args.size());
    for (const auto& a : args) {
        if (const auto* v = std::get_if<Value>(&a)) {
            slots.emplace_back(*v);
        } else {
            slots.emplace_back(std::get<BufferPtr>(a));
        }
    }
    const long long steps_before = impl_->steps;
    Value out = impl_->call_function(*fn, std::move(slots));
    trace::Registry::current().count(
        "interp.steps",
        static_cast<std::uint64_t>(impl_->steps - steps_before));
    return out;
}

const ExecutionProfile& Interpreter::profile() const { return impl_->prof; }

RunResult run_function(const ast::Module& module, const sema::TypeInfo& types,
                       const std::string& fn, const std::vector<Arg>& args,
                       InterpOptions options) {
    options.profile = true;

    // Both branches run the identical charge sequence; which one executed
    // is observable only through speed.
    if (options.engine == Engine::Vm) {
        Vm machine(module, types, options);
        Value result = machine.call(fn, args);
        trace::Registry::current().count("interp.runs", 1);
        trace::Registry::current().count(
            "interp.cost_units",
            static_cast<std::uint64_t>(machine.profile().total_cost));
        return RunResult{result, machine.profile()};
    }
    Interpreter interp(module, types, options);
    Value result = interp.call(fn, args);
    trace::Registry::current().count("interp.runs", 1);
    trace::Registry::current().count(
        "interp.cost_units",
        static_cast<std::uint64_t>(interp.profile().total_cost));
    return RunResult{result, interp.profile()};
}

} // namespace psaflow::interp
