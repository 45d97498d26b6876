// Error types shared across the library. psaflow reports unrecoverable
// conditions (malformed source, impossible transform preconditions, model
// misuse) by throwing Error; callers that want to probe instead of fail use
// the query/analysis APIs' optional-returning variants.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

#include "support/source_location.hpp"

namespace psaflow {

/// Base exception for all psaflow failures.
class Error : public std::runtime_error {
public:
    explicit Error(std::string msg) : std::runtime_error(std::move(msg)) {}
};

/// Lexing/parsing failure, carrying the source position of the offence.
class ParseError : public Error {
public:
    ParseError(SrcLoc loc, const std::string& msg)
        : Error(to_string(loc) + ": " + msg), loc_(loc) {}

    [[nodiscard]] SrcLoc where() const { return loc_; }

private:
    SrcLoc loc_;
};

/// Semantic-analysis failure (undeclared name, type mismatch, ...).
class SemaError : public Error {
public:
    SemaError(SrcLoc loc, const std::string& msg)
        : Error(to_string(loc) + ": " + msg), loc_(loc) {}

    [[nodiscard]] SrcLoc where() const { return loc_; }

private:
    SrcLoc loc_;
};

/// Runtime failure inside the HLC interpreter (out-of-bounds index,
/// division by zero, unbound name, ...).
class InterpError : public Error {
public:
    using Error::Error;
};

/// Throw Error with `msg` unless `cond` holds. Used for preconditions whose
/// violation indicates API misuse rather than a bug in psaflow itself.
/// A literal message picks the `const char*` overload and costs nothing when
/// the check passes. A composed message is built before the call even when
/// the check passes, so on a hot path write `if (!cond) throw Error(...)`.
inline void ensure(bool cond, const char* msg) {
    if (!cond) throw Error(msg);
}

inline void ensure(bool cond, const std::string& msg) {
    if (!cond) throw Error(msg);
}

} // namespace psaflow
