// Bytecode VM for the profiling interpreter.
//
// Drop-in replacement for the tree-walking Interpreter: same constructor
// shape, same call/profile interface, same cooperative cancellation (the
// dispatch loop polls the ambient CancelToken on exactly the tree walker's
// step cadence) and — by construction of the lowering in bytecode.hpp —
// bit-identical results, profiles and error strings. It is the production
// engine; `InterpOptions::engine` (interpreter.hpp) selects the tree
// walker only where tests compare the two.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"

namespace psaflow::interp {

/// Executes checked HLC modules by lowering them to bytecode once and then
/// running a register-based dispatch loop. Observationally identical to
/// Interpreter; differential coverage lives in tests/test_vm.cpp and the
/// `interp:vm` fuzz oracle.
class Vm {
public:
    /// `module` and `types` must outlive the VM; `types` must come from
    /// sema::check on exactly this module. Lowering happens here (O(AST),
    /// negligible next to any profiled run).
    Vm(const ast::Module& module, const sema::TypeInfo& types,
       InterpOptions options = {});

    ~Vm();
    Vm(const Vm&) = delete;
    Vm& operator=(const Vm&) = delete;

    /// Call function `name` with `args` — contract and error behavior of
    /// Interpreter::call.
    Value call(const std::string& name, const std::vector<Arg>& args);

    /// Profile of everything executed so far (meaningful when
    /// options.profile was set).
    [[nodiscard]] const ExecutionProfile& profile() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace psaflow::interp
