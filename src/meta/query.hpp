// The query mechanism of the meta-programming substrate (paper Fig. 2).
//
// Artisan meta-programs locate program elements with AST queries such as
//     query(forall loop, fn in ast :
//           loop.isForStmt and fn.name == kernel_name
//           and fn.encloses(loop) and loop.is_outermost)
// This header provides the same vocabulary over the HLC AST: typed node
// collection with predicates, plus the loop-structure helpers every
// design-flow task in the repository uses.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ast/nodes.hpp"
#include "ast/walk.hpp"

namespace psaflow::meta {

/// All `for` loops under `root`, pre-order (outer loops before their inner
/// loops), optionally filtered.
[[nodiscard]] std::vector<ast::For*> for_loops(
    ast::Node& root,
    const std::function<bool(const ast::For&)>& pred = [](const ast::For&) {
        return true;
    });

/// Loops under `root` not enclosed by any other loop *within root* — the
/// "outermost for-loops" of Fig. 2's unroll meta-program.
[[nodiscard]] std::vector<ast::For*> outermost_for_loops(ast::Node& root);
[[nodiscard]] std::vector<const ast::For*>
outermost_for_loops(const ast::Node& root);

/// Loops strictly inside `loop`.
[[nodiscard]] std::vector<ast::For*> inner_for_loops(ast::For& loop);

/// Nesting depth of the loop tree rooted at `loop` (1 = no inner loops).
[[nodiscard]] int loop_nest_depth(const ast::For& loop);

/// True when the loop's trip count is a compile-time constant, i.e. init,
/// limit and step are integer literals (after constant folding of +,-,*).
/// Fixed-bound loops are the candidates for full unrolling on FPGAs.
[[nodiscard]] bool has_fixed_bounds(const ast::For& loop);

/// Compile-time trip count for a fixed-bound loop; throws if not fixed.
[[nodiscard]] long long constant_trip_count(const ast::For& loop);

/// Fold an integer constant expression (+, -, *, literals); nullopt if the
/// expression is not constant.
[[nodiscard]] std::optional<long long> fold_int_constant(const ast::Expr& expr);

/// Every Ident name that appears free in `node` (reads and writes), i.e.
/// used but not declared within `node`. Array names used as call arguments
/// or subscript bases are included. Induction variables of loops inside
/// `node` are *not* free.
[[nodiscard]] std::vector<std::string> free_variables(const ast::Node& node);

/// Names declared (VarDecl or loop induction) inside `node`.
[[nodiscard]] std::vector<std::string> declared_names(const ast::Node& node);

/// True if any statement under `node` writes variable `name` (assignment to
/// the scalar or to an element of the array of that name).
[[nodiscard]] bool writes_variable(ast::Node& node, const std::string& name);

/// All Call expressions under `root`, optionally filtered by callee name.
[[nodiscard]] std::vector<ast::Call*> calls_to(ast::Node& root,
                                               const std::string& callee = "");

} // namespace psaflow::meta
