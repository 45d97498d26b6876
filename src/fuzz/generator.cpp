#include "fuzz/generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ast/builder.hpp"
#include "ast/printer.hpp"
#include "interp/value.hpp"
#include "support/cas/cas.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace psaflow::fuzz {

namespace {

using namespace ast;
namespace b = ast::build;

/// Nice decimal spellings the printer re-emits verbatim; values chosen to be
/// exactly representable so float/double rounding is bit-stable.
struct LitSpelling {
    double value;
    const char* spelling;
};
constexpr LitSpelling kFloatLits[] = {
    {0.5, "0.5"},   {1.5, "1.5"},     {0.25, "0.25"}, {2.0, "2.0"},
    {0.75, "0.75"}, {1.0, "1.0"},     {3.0, "3.0"},   {0.125, "0.125"},
    {4.0, "4.0"},   {1.75, "1.75"},   {2.5, "2.5"},   {0.0625, "0.0625"},
};

struct ScalarVar {
    std::string name;
    Type type;
};

/// A buffer the current function may load from / store to. Parameter
/// buffers are indexable over [0, n); local arrays over [0, size).
struct BufferVar {
    std::string name;
    Type elem;
    bool is_local = false;
    long long local_size = 0; ///< constant size when is_local
};

class Generator {
public:
    Generator(std::uint64_t seed, const GenOptions& opt)
        : rng_(seed), opt_(opt) {}

    ModulePtr run() {
        decide_signature();
        std::vector<FunctionPtr> fns;
        if (has_helper_) fns.push_back(gen_helper());
        const int kernels =
            1 + static_cast<int>(rng_.next_below(
                    static_cast<std::uint64_t>(opt_.max_kernels)));
        for (int k = 0; k < kernels; ++k)
            fns.push_back(gen_kernel("fz_k" + std::to_string(k), k == 0));
        fns.push_back(gen_entry(kernels));
        return b::module("fuzz", std::move(fns));
    }

private:
    // ---------------------------------------------------------- helpers ---

    std::uint64_t below(std::uint64_t n) { return rng_.next_below(n); }
    bool chance(int percent) {
        return below(100) < static_cast<std::uint64_t>(percent);
    }

    ExprPtr lit() {
        const auto& l = kFloatLits[below(std::size(kFloatLits))];
        ExprPtr e = b::float_lit(l.value, l.spelling);
        if (chance(25)) e = b::unary(UnaryOp::Neg, std::move(e));
        return e;
    }

    std::string fresh(const char* stem) {
        return std::string(stem) + std::to_string(name_counter_++);
    }

    // ------------------------------------------------------- signatures ---

    void decide_signature() {
        const int nbufs = 2 + static_cast<int>(below(3)); // 2..4 buffers
        for (int i = 0; i < nbufs; ++i) {
            params_.push_back(BufferVar{
                "b" + std::to_string(i),
                chance(65) ? Type::Double : Type::Float});
        }
        has_scalar_param_ = chance(40);
        has_helper_ = chance(30);
    }

    std::vector<ParamPtr> signature_params() const {
        std::vector<ParamPtr> ps;
        ps.push_back(b::param({Type::Int, false}, "n"));
        for (const auto& buf : params_)
            ps.push_back(b::param({buf.elem, true}, buf.name));
        if (has_scalar_param_)
            ps.push_back(b::param({Type::Double, false}, "x0"));
        return ps;
    }

    /// Reset per-function scope to the shared signature.
    void enter_function() {
        scalars_.clear();
        idx_vars_.clear();
        bufs_.clear();
        scalars_.push_back({"n", Type::Int});
        if (has_scalar_param_) scalars_.push_back({"x0", Type::Double});
        for (const auto& buf : params_) bufs_.push_back(buf);
    }

    // ----------------------------------------------------- expressions ---

    /// Int expression provably in [0, n): built from induction variables
    /// (each themselves in [0, n)) and `% n` reductions of non-negative
    /// combinations. Requires at least one index variable in scope.
    ExprPtr index_expr() {
        const auto& v = idx_vars_[below(idx_vars_.size())];
        switch (below(5)) {
            case 0:
            case 1: return b::ident(v);
            case 2: { // (v + c) % n
                auto sum = b::add(b::ident(v),
                                  b::int_lit(1 + static_cast<long long>(
                                                     below(4))));
                return b::binary(BinaryOp::Mod, std::move(sum), b::ident("n"));
            }
            case 3: { // (v * a + c) % n
                auto expr = b::add(
                    b::mul(b::ident(v),
                           b::int_lit(2 + static_cast<long long>(below(2)))),
                    b::int_lit(static_cast<long long>(below(4))));
                return b::binary(BinaryOp::Mod, std::move(expr),
                                 b::ident("n"));
            }
            default: { // (v + w) % n with a second index variable
                const auto& w = idx_vars_[below(idx_vars_.size())];
                auto sum = b::add(b::ident(v), b::ident(w));
                return b::binary(BinaryOp::Mod, std::move(sum), b::ident("n"));
            }
        }
    }

    /// Subscript for a specific buffer: [0, n) for parameter buffers,
    /// `idx % size` for constant-sized local arrays.
    ExprPtr subscript_for(const BufferVar& buf) {
        if (!buf.is_local) return index_expr();
        const auto& v = idx_vars_[below(idx_vars_.size())];
        return b::binary(BinaryOp::Mod, b::ident(v),
                         b::int_lit(buf.local_size));
    }

    /// A numeric atom: literal, scalar variable or buffer load.
    ExprPtr atom() {
        const std::uint64_t pick = below(10);
        if (pick < 3 || (bufs_.empty() && scalars_.empty())) return lit();
        if (pick < 6 && !scalars_.empty()) {
            return b::ident(scalars_[below(scalars_.size())].name);
        }
        if (!bufs_.empty() && !idx_vars_.empty()) {
            const auto& buf = bufs_[below(bufs_.size())];
            return b::index(buf.name, subscript_for(buf));
        }
        return lit();
    }

    /// Numeric expression of bounded depth. Builtin calls are wrapped so
    /// their domain preconditions hold for every argument value; exp and
    /// pow arguments are clamped so results stay finite in float.
    ExprPtr num_expr(int depth) {
        // fabs(e), with NaN (from inf - inf once a float buffer overflows)
        // mapped to 0: fmax returns its other operand when one is NaN, and
        // sqrt and log reject NaN like a negative argument.
        const auto nonneg = [](ExprPtr e) {
            return b::call("fmax", vec2(b::call("fabs", vec(std::move(e))),
                                        b::float_lit(0.0, "0.0")));
        };
        if (depth <= 0 || chance(30)) return atom();
        switch (below(8)) {
            case 0:
                return b::add(num_expr(depth - 1), num_expr(depth - 1));
            case 1:
                return b::sub(num_expr(depth - 1), num_expr(depth - 1));
            case 2:
                return b::mul(num_expr(depth - 1), num_expr(depth - 1));
            case 3: // safe division: denominator >= 1.5
                return b::binary(
                    BinaryOp::Div, num_expr(depth - 1),
                    b::add(b::float_lit(1.5, "1.5"),
                           b::call("fabs", vec(num_expr(depth - 1)))));
            case 4: { // bounded one-argument builtins
                static const char* kSafe[] = {"sin",  "cos",   "tanh",
                                              "erf",  "erfc",  "fabs",
                                              "floor"};
                return b::call(kSafe[below(std::size(kSafe))],
                               vec(num_expr(depth - 1)));
            }
            case 5: { // domain-guarded builtins
                switch (below(4)) {
                    case 0: // sqrt(fmax(fabs(e), 0.0))
                        return b::call("sqrt",
                                       vec(nonneg(num_expr(depth - 1))));
                    case 1: // log(fmax(fabs(e), 0.0) + 1.0)
                        return b::call(
                            "log", vec(b::add(nonneg(num_expr(depth - 1)),
                                              b::float_lit(1.0, "1.0"))));
                    case 2: // exp(fmin(fabs(e), 8.0))
                        return b::call(
                            "exp",
                            vec(b::call(
                                "fmin",
                                vec2(b::call("fabs",
                                             vec(num_expr(depth - 1))),
                                     b::float_lit(8.0, "8.0")))));
                    default: // pow(fmin(fabs(e), 4.0) + 1.0, 2.0)
                        return b::call(
                            "pow",
                            vec2(b::add(b::call(
                                            "fmin",
                                            vec2(b::call("fabs",
                                                         vec(num_expr(
                                                             depth - 1))),
                                                 b::float_lit(4.0, "4.0"))),
                                        b::float_lit(1.0, "1.0")),
                                 b::float_lit(2.0, "2.0")));
                }
            }
            case 6: // two-argument min/max
                return b::call(chance(50) ? "fmin" : "fmax",
                               vec2(num_expr(depth - 1),
                                    num_expr(depth - 1)));
            default:
                if (has_helper_ && in_kernel_) {
                    return b::call("fz_h0", vec2(num_expr(depth - 1),
                                                 num_expr(depth - 1)));
                }
                return b::add(num_expr(depth - 1), num_expr(depth - 1));
        }
    }

    /// Boolean expression for if/while conditions.
    ExprPtr bool_expr(int depth) {
        static const BinaryOp kCmps[] = {BinaryOp::Lt, BinaryOp::Le,
                                         BinaryOp::Gt, BinaryOp::Ge,
                                         BinaryOp::Eq, BinaryOp::Ne};
        auto cmp = [&] {
            return b::binary(kCmps[below(std::size(kCmps))], num_expr(1),
                             num_expr(1));
        };
        if (depth <= 0 || chance(60)) return cmp();
        switch (below(3)) {
            case 0:
                return b::binary(BinaryOp::And, cmp(), bool_expr(depth - 1));
            case 1:
                return b::binary(BinaryOp::Or, cmp(), bool_expr(depth - 1));
            default: return b::unary(UnaryOp::Not, cmp());
        }
    }

    static std::vector<ExprPtr> vec(ExprPtr a) {
        std::vector<ExprPtr> v;
        v.push_back(std::move(a));
        return v;
    }
    static std::vector<ExprPtr> vec2(ExprPtr a, ExprPtr c) {
        std::vector<ExprPtr> v;
        v.push_back(std::move(a));
        v.push_back(std::move(c));
        return v;
    }

    // ------------------------------------------------------- statements ---

    struct ScopeMark {
        std::size_t scalars, idx_vars, bufs;
    };
    ScopeMark mark() const {
        return {scalars_.size(), idx_vars_.size(), bufs_.size()};
    }
    void release(const ScopeMark& m) {
        scalars_.resize(m.scalars);
        idx_vars_.resize(m.idx_vars);
        bufs_.resize(m.bufs);
    }

    /// Store into a random writable buffer. `plain_index` forces the
    /// subscript to be the innermost index variable itself, which keeps the
    /// enclosing loop recognisably parallel for the dependence analysis.
    StmtPtr buffer_store(bool plain_index) {
        const auto& buf = bufs_[below(bufs_.size())];
        ExprPtr idx = plain_index && !buf.is_local
                          ? b::ident(idx_vars_.back())
                          : subscript_for(buf);
        static const AssignOp kOps[] = {AssignOp::Set, AssignOp::Set,
                                        AssignOp::Add, AssignOp::Sub};
        return b::assign(b::index(buf.name, std::move(idx)),
                         num_expr(opt_.max_expr_depth),
                         kOps[below(std::size(kOps))]);
    }

    /// `double t = 0.0; for (...) { t += e; } buf[i] op= t;` — the scalar
    /// reduction idiom of the benchmark kernels.
    void reduction(std::vector<StmtPtr>& out, int loop_depth) {
        const std::string acc = fresh("t");
        out.push_back(b::var_decl(Type::Double, acc,
                                  b::float_lit(0.0, "0.0")));
        const ScopeMark m = mark();
        const std::string iv = fresh("i");
        idx_vars_.push_back(iv);
        scalars_.push_back({iv, Type::Int});

        std::vector<StmtPtr> body;
        body.push_back(b::assign(b::ident(acc),
                                 num_expr(opt_.max_expr_depth - 1),
                                 chance(80) ? AssignOp::Add : AssignOp::Sub));
        if (chance(30) && loop_depth + 1 < opt_.max_loop_depth) {
            // occasionally nest the reduction one level deeper
            body.push_back(statement(loop_depth + 1, false));
        }
        out.push_back(b::for_loop(
            iv, b::int_lit(0), b::ident("n"), b::block(std::move(body)),
            b::int_lit(1 + static_cast<long long>(below(2)))));
        release(m);
        scalars_.push_back({acc, Type::Double});

        if (!idx_vars_.empty()) {
            const auto& buf = bufs_[below(bufs_.size())];
            out.push_back(b::assign(b::index(buf.name, subscript_for(buf)),
                                    b::ident(acc),
                                    chance(60) ? AssignOp::Set
                                               : AssignOp::Add));
        }
    }

    /// Bounded while loop: `int w = 0; while (w < C) { ...; w = w + 1; }`.
    void bounded_while(std::vector<StmtPtr>& out) {
        const std::string w = fresh("w");
        const long long bound = 2 + static_cast<long long>(below(3));
        out.push_back(b::var_decl(Type::Int, w, b::int_lit(0)));
        const ScopeMark m = mark();
        scalars_.push_back({w, Type::Int});
        std::vector<StmtPtr> body;
        if (!idx_vars_.empty() && !bufs_.empty())
            body.push_back(buffer_store(false));
        body.push_back(b::assign(b::ident(w),
                                 b::add(b::ident(w), b::int_lit(1))));
        out.push_back(b::while_loop(b::lt(b::ident(w), b::int_lit(bound)),
                                    b::block(std::move(body))));
        release(m);
    }

    /// Local fixed-size array plus a fixed-bound fill loop (a full-unroll
    /// candidate), after which the array joins the store/load pool.
    void local_array(std::vector<StmtPtr>& out) {
        const std::string name = fresh("la");
        const long long size = chance(50) ? 4 : 8;
        const Type elem = chance(70) ? Type::Double : Type::Float;
        out.push_back(b::array_decl(elem, name, b::int_lit(size)));
        const std::string iv = fresh("i");
        const ScopeMark m = mark();
        idx_vars_.push_back(iv);
        scalars_.push_back({iv, Type::Int});
        std::vector<StmtPtr> body;
        body.push_back(b::assign(b::index(name, b::ident(iv)),
                                 num_expr(opt_.max_expr_depth - 1)));
        release(m);
        out.push_back(b::for_loop(iv, b::int_lit(0), b::int_lit(size),
                                  b::block(std::move(body))));
        bufs_.push_back(BufferVar{name, elem, true, size});
    }

    /// One statement for a loop body. `parallel_bias` biases toward stores
    /// through the innermost plain index (keeps the loop parallelisable).
    StmtPtr statement(int loop_depth, bool parallel_bias) {
        std::vector<StmtPtr> grouped;
        switch (below(10)) {
            case 0: { // scalar declaration
                const std::string t = fresh("t");
                const Type ty = chance(70) ? Type::Double : Type::Float;
                auto d = b::var_decl(ty, t, num_expr(opt_.max_expr_depth));
                scalars_.push_back({t, ty});
                return d;
            }
            case 1: { // int index-local declaration (stays in [0, n))
                const std::string t = fresh("q");
                auto d = b::var_decl(Type::Int, t, index_expr());
                idx_vars_.push_back(t);
                scalars_.push_back({t, Type::Int});
                return d;
            }
            case 2: { // if / if-else
                const ScopeMark m = mark();
                auto then_body = small_block(loop_depth);
                release(m);
                BlockPtr else_body;
                if (chance(40)) {
                    else_body = small_block(loop_depth);
                    release(m);
                }
                return b::if_stmt(bool_expr(1), std::move(then_body),
                                  std::move(else_body));
            }
            case 3: { // bounded while
                bounded_while(grouped);
                return group(std::move(grouped));
            }
            case 4: { // scalar reduction over an inner loop
                if (loop_depth < opt_.max_loop_depth) {
                    reduction(grouped, loop_depth);
                    return group(std::move(grouped));
                }
                return buffer_store(parallel_bias);
            }
            case 5: { // nested loop over n or a fixed bound
                if (loop_depth < opt_.max_loop_depth) {
                    return counted_loop(loop_depth, /*fixed=*/chance(40),
                                        /*parallel_bias=*/false);
                }
                return buffer_store(parallel_bias);
            }
            case 6: { // local array + fill loop
                if (loop_depth < opt_.max_loop_depth) {
                    local_array(grouped);
                    return group(std::move(grouped));
                }
                return buffer_store(parallel_bias);
            }
            case 7: { // array accumulation at a loop-invariant index
                const auto& buf = bufs_[below(bufs_.size())];
                const long long c = static_cast<long long>(below(4));
                return b::assign(
                    b::index(buf.name,
                             b::int_lit(buf.is_local ? c % buf.local_size
                                                     : c)),
                    num_expr(opt_.max_expr_depth - 1),
                    chance(75) ? AssignOp::Add : AssignOp::Sub);
            }
            default:
                return buffer_store(parallel_bias);
        }
    }

    /// Wrap a multi-statement idiom in a Block so callers get one StmtPtr.
    static StmtPtr group(std::vector<StmtPtr> stmts) {
        if (stmts.size() == 1) return std::move(stmts.front());
        return b::block(std::move(stmts));
    }

    BlockPtr small_block(int loop_depth) {
        std::vector<StmtPtr> stmts;
        const int count = 1 + static_cast<int>(below(2));
        for (int i = 0; i < count; ++i)
            stmts.push_back(statement(loop_depth, false));
        return b::block(std::move(stmts));
    }

    /// Canonical counted loop. Over `n` (runtime bound) or a small constant
    /// (fixed bound; a candidate for full unrolling).
    StmtPtr counted_loop(int enclosing_depth, bool fixed,
                         bool parallel_bias) {
        const std::string iv = fresh("i");
        const ScopeMark m = mark();
        idx_vars_.push_back(iv);
        scalars_.push_back({iv, Type::Int});

        std::vector<StmtPtr> body;
        const int count =
            1 + static_cast<int>(below(
                    static_cast<std::uint64_t>(opt_.max_block_stmts)));
        for (int i = 0; i < count; ++i)
            body.push_back(statement(enclosing_depth + 1, parallel_bias));
        if (parallel_bias) body.push_back(buffer_store(true));
        release(m);

        ExprPtr limit = fixed ? b::int_lit(chance(50) ? 4 : 8)
                              : static_cast<ExprPtr>(b::ident("n"));
        ExprPtr step = b::int_lit(
            fixed ? 1 : 1 + static_cast<long long>(below(3)));
        return b::for_loop(iv, b::int_lit(0), std::move(limit),
                           b::block(std::move(body)), std::move(step));
    }

    // -------------------------------------------------------- functions ---

    FunctionPtr gen_helper() {
        // Pure scalar helper over its two parameters only.
        scalars_.clear();
        idx_vars_.clear();
        bufs_.clear();
        scalars_.push_back({"u", Type::Double});
        scalars_.push_back({"v", Type::Double});
        in_kernel_ = false;
        std::vector<StmtPtr> body;
        body.push_back(b::ret(num_expr(2)));
        std::vector<ParamPtr> ps;
        ps.push_back(b::param({Type::Double, false}, "u"));
        ps.push_back(b::param({Type::Double, false}, "v"));
        return b::function(Type::Double, "fz_h0", std::move(ps),
                           b::block(std::move(body)));
    }

    FunctionPtr gen_kernel(const std::string& name, bool parallel_bias) {
        enter_function();
        in_kernel_ = true;
        std::vector<StmtPtr> body;
        // Optional read-only scalar set up before the loops (never written
        // inside them, so hotspot extraction stays applicable).
        if (chance(35)) {
            const std::string t = fresh("t");
            body.push_back(
                b::var_decl(Type::Double, t, num_expr(1)));
            scalars_.push_back({t, Type::Double});
        }
        body.push_back(counted_loop(1, /*fixed=*/false, parallel_bias));
        if (chance(25))
            body.push_back(counted_loop(1, /*fixed=*/false, false));
        return b::function(Type::Void, name, signature_params(),
                           b::block(std::move(body)));
    }

    FunctionPtr gen_entry(int kernels) {
        enter_function();
        in_kernel_ = false;
        std::vector<StmtPtr> body;
        for (int k = 0; k < kernels; ++k) {
            std::vector<ExprPtr> args;
            args.push_back(b::ident("n"));
            for (const auto& buf : params_) args.push_back(b::ident(buf.name));
            if (has_scalar_param_) args.push_back(b::ident("x0"));
            body.push_back(b::expr_stmt(
                b::call("fz_k" + std::to_string(k), std::move(args))));
        }
        return b::function(Type::Void, "run", signature_params(),
                           b::block(std::move(body)));
    }

    SplitMix64 rng_;
    const GenOptions& opt_;

    std::vector<BufferVar> params_; ///< shared buffer signature
    bool has_scalar_param_ = false;
    bool has_helper_ = false;
    bool in_kernel_ = false;

    std::vector<ScalarVar> scalars_;
    std::vector<std::string> idx_vars_; ///< int vars provably in [0, n)
    std::vector<BufferVar> bufs_;
    int name_counter_ = 0;
};

} // namespace

GeneratedProgram generate_program(std::uint64_t seed,
                                  const GenOptions& options) {
    Generator gen(seed, options);
    GeneratedProgram out;
    out.module = gen.run();
    out.source = ast::to_source(*out.module);
    out.seed = seed;
    return out;
}

analysis::Workload fuzz_workload(const ast::Module& module, int problem_size) {
    const ast::Function* entry = module.find_function("run");
    ensure(entry != nullptr, "fuzz_workload: module has no 'run' entry");

    struct ParamDesc {
        std::string name;
        ast::ValueType type;
    };
    std::vector<ParamDesc> params;
    params.reserve(entry->params.size());
    for (const auto& p : entry->params)
        params.push_back({p->name, p->type});

    analysis::Workload w;
    w.entry = "run";
    w.profile_scale = 1.0;
    w.eval_scale = 4.0;
    w.make_args = [params, problem_size](double scale) {
        const long long n = std::max<long long>(
            1, std::llround(problem_size * scale));
        std::vector<interp::Arg> args;
        bool first_int = true;
        for (const auto& p : params) {
            const std::uint64_t h = cas::fnv1a(p.name.data(), p.name.size());
            if (p.type.is_pointer) {
                auto buf = std::make_shared<interp::Buffer>(
                    p.type.elem, static_cast<std::size_t>(n), p.name);
                SplitMix64 fill(h ^ 0x5eedf00dULL);
                for (long long i = 0; i < n; ++i)
                    buf->store(i, fill.uniform(-2.0, 2.0));
                args.emplace_back(std::move(buf));
            } else if (p.type.elem == ast::Type::Int) {
                if (first_int) {
                    args.emplace_back(interp::Value::of_int(n));
                    first_int = false;
                } else {
                    args.emplace_back(interp::Value::of_int(
                        3 + static_cast<long long>(h % 5)));
                }
            } else if (p.type.elem == ast::Type::Bool) {
                args.emplace_back(interp::Value::of_bool((h & 1) != 0));
            } else {
                SplitMix64 fill(h ^ 0x5ca1a45eedULL);
                const double v = fill.uniform(-2.0, 2.0);
                args.emplace_back(p.type.elem == ast::Type::Float
                                      ? interp::Value::of_float(v)
                                      : interp::Value::of_double(v));
            }
        }
        return args;
    };
    return w;
}

} // namespace psaflow::fuzz
