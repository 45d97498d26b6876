// Recursive-descent parser for HLC, producing the source-faithful AST.
//
// For-loops are normalised to the canonical counted form
//     for (int i = <init>; i < <limit>; i = i + <step>)
// accepting `i < e`, `i <= e` (rewritten to `i < e + 1`), and the step
// spellings `i = i + c`, `i += c`, `i++`, `++i`. The paper's loop analyses
// (dependence, trip count, unroll DSE) all assume canonical loops.
#pragma once

#include <string>
#include <string_view>

#include "ast/nodes.hpp"

namespace psaflow::frontend {

/// The deepest nesting the parser accepts, counting statements,
/// sub-expressions (parenthesised, unary, subscript, argument) and each
/// operator of a chain like `a + b + c`. Every later pass (sema, printing,
/// cloning, transforms, codegen, both interpreters) recurses over the
/// tree, so deeper input would overflow the stack somewhere; past the cap
/// it is a ParseError at the token that went too deep. Measured with every
/// `psaflow-fuzz --replay` oracle on x86-64: a RelWithDebInfo build
/// passes 1024 levels of any shape on a 1 MB stack, but an address
/// sanitizer build, whose parser frames are about 20 times larger,
/// overflows the default 8 MB stack at 1024 nested blocks and 768 nested
/// `if`s (1536 levels). 512 passes there for every shape.
inline constexpr int kMaxNesting = 512;

/// Parse a full translation unit. `module_name` labels the design in reports.
/// Throws ParseError on malformed input.
[[nodiscard]] ast::ModulePtr parse_module(std::string_view source,
                                          std::string module_name = "module");

/// Parse a single expression (used by tests and pragma payloads).
[[nodiscard]] ast::ExprPtr parse_expression(std::string_view source);

} // namespace psaflow::frontend
