// Shared helpers for the psaflow test suite.
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "ast/nodes.hpp"
#include "ast/printer.hpp"
#include "frontend/parser.hpp"
#include "sema/type_check.hpp"

namespace psaflow::testing {

/// Parse, returning the module (throws on error).
inline ast::ModulePtr parse(std::string_view src,
                            std::string name = "test") {
    return frontend::parse_module(src, std::move(name));
}

/// Parse and type-check.
struct Checked {
    ast::ModulePtr module;
    sema::TypeInfo types;
};

inline Checked parse_and_check(std::string_view src,
                               std::string name = "test") {
    auto mod = frontend::parse_module(src, std::move(name));
    auto types = sema::check(*mod);
    return Checked{std::move(mod), std::move(types)};
}

/// Normalised source text: parse then print.
inline std::string normalise(std::string_view src) {
    return ast::to_source(*frontend::parse_module(src));
}

/// Byte-compare `got` against the snapshot file at `path`. With
/// PSAFLOW_UPDATE_GOLDEN set (and not "0") the snapshot is rewritten
/// instead; review the resulting `git diff tests/golden/` before committing.
inline void expect_golden(const std::string& path, const std::string& got) {
    const char* env = std::getenv("PSAFLOW_UPDATE_GOLDEN");
    if (env != nullptr && *env != '\0' && std::string(env) != "0") {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    ASSERT_FALSE(want.str().empty())
        << path << " missing; regenerate with PSAFLOW_UPDATE_GOLDEN=1";
    EXPECT_EQ(want.str(), got)
        << path << " changed; if intended, refresh with "
                   "PSAFLOW_UPDATE_GOLDEN=1 and review the diff";
}

} // namespace psaflow::testing
