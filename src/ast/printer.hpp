// Source emission. psaflow is a source-to-source system: like Artisan, its
// AST mirrors the source as written, and this printer renders any subtree
// back to compilable, human-readable HLC text. Designs exported by the
// PSA-flow (and measured by the Table I LOC accounting) are produced here.
#pragma once

#include <string>

#include "ast/nodes.hpp"

namespace psaflow::ast {

/// Render a whole module as HLC source.
[[nodiscard]] std::string to_source(const Module& module);

/// Render a whole module as to_source does, but with every statement's
/// pragmas left out. Pragmas steer code generation only; no interpreter,
/// analysis or type check reads them, so this is the form that decides
/// what a profiling run computes (the profile cache keys on it).
[[nodiscard]] std::string to_source_without_pragmas(const Module& module);

/// Render a single function definition.
[[nodiscard]] std::string to_source(const Function& fn);

/// Render a statement subtree at the given indent depth (4 spaces per level).
[[nodiscard]] std::string to_source(const Stmt& stmt, int depth = 0);

/// Render an expression (no trailing newline).
[[nodiscard]] std::string to_source(const Expr& expr);

} // namespace psaflow::ast
