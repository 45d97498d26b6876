// Tree-walking interpreter for HLC.
//
// Substitutes for native execution in all dynamic design-flow tasks. Costs
// are deterministic "work units" (roughly: scalar operations weighted by the
// builtin flop table, plus memory-access and loop overheads), which makes
// hotspot detection reproducible across machines — a property wall-clock
// timers do not have.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "ast/nodes.hpp"
#include "interp/profile.hpp"
#include "interp/value.hpp"
#include "sema/type_check.hpp"

namespace psaflow::interp {

/// An argument to a top-level call: a scalar or a buffer (array).
using Arg = std::variant<Value, BufferPtr>;

/// Which execution engine runs HLC code. Both are observationally
/// identical (bit-equal results, profiles and error strings — enforced by
/// tests/test_vm.cpp and the `interp:vm` fuzz oracle). The bytecode VM is
/// the production engine; the tree walker is the reference it is tested
/// against.
enum class Engine {
    Tree, ///< AST-walking Interpreter (the reference implementation)
    Vm,   ///< bytecode compiler + register VM (vm.hpp)
};

struct InterpOptions {
    bool profile = false;            ///< collect ExecutionProfile
    std::string focus_function;      ///< function whose calls are summarised
    /// Also summarise every outermost for-loop of every function as a focus
    /// region (ExecutionProfile::regions): what a kernel extracted from the
    /// loop would observe as focus function, without extracting it.
    bool region_focus = false;
    long long max_steps = 500'000'000; ///< abort runaway programs
    /// Engine for this run. NOTE: the profile cache key deliberately
    /// excludes this — both engines produce identical profiles.
    Engine engine = Engine::Vm;
};

class Interpreter {
public:
    /// `module` and `types` must outlive the interpreter; `types` must have
    /// been produced by sema::check on exactly this module.
    Interpreter(const ast::Module& module, const sema::TypeInfo& types,
                InterpOptions options = {});

    ~Interpreter();
    Interpreter(const Interpreter&) = delete;
    Interpreter& operator=(const Interpreter&) = delete;

    /// Call function `name` with `args`. Scalar args convert to the declared
    /// parameter types; buffer args must match element types exactly.
    Value call(const std::string& name, const std::vector<Arg>& args);

    /// Profile of everything executed so far (meaningful when
    /// options.profile was set).
    [[nodiscard]] const ExecutionProfile& profile() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// One-shot convenience: parse nothing, just run `fn(args)` on an already
/// checked module and return the result value plus profile.
struct RunResult {
    Value result;
    ExecutionProfile profile;
};

[[nodiscard]] RunResult run_function(const ast::Module& module,
                                     const sema::TypeInfo& types,
                                     const std::string& fn,
                                     const std::vector<Arg>& args,
                                     InterpOptions options = {});

} // namespace psaflow::interp
