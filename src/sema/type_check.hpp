// Type checking and name resolution for HLC modules.
//
// Every analysis, transform and code generator relies on TypeInfo: element
// types decide bytes-moved (data in/out analysis), float vs double decides
// the SP transforms, and scope information decides which variables become
// kernel parameters during hotspot extraction.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ast/nodes.hpp"

namespace psaflow::sema {

/// Results of checking one module. Valid until the module is structurally
/// edited; transforms re-run `check` afterwards.
class TypeInfo {
public:
    /// Static type of an expression node.
    [[nodiscard]] ast::Type type_of(const ast::Expr& expr) const;

    /// Declared type of variable `name` as visible at node `at` inside `fn`;
    /// throws SemaError if unknown. Loop induction variables are Int.
    [[nodiscard]] ast::ValueType
    var_type(const ast::Function& fn, const std::string& name) const;

    /// All variables of `fn` in declaration order (params first).
    struct VarInfo {
        std::string name;
        ast::ValueType type;
        bool is_param = false;
        bool is_array = false; ///< declared as a local array
    };
    [[nodiscard]] const std::vector<VarInfo>&
    variables(const ast::Function& fn) const;

private:
    friend struct TypeInfoAccess; ///< checker-internal write access

    std::unordered_map<const ast::Expr*, ast::Type> expr_types_;
    std::unordered_map<const ast::Function*, std::vector<VarInfo>> fn_vars_;
};

/// Check `module`; throws SemaError on the first violation (undeclared name,
/// type mismatch, bad call arity, non-int array subscript, ...).
[[nodiscard]] TypeInfo check(const ast::Module& module);

} // namespace psaflow::sema
