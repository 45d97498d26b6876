// A minimal JSON reader and writer for machine-readable tool I/O — the
// reader's first consumer was `psaflowc --batch manifest.json`, and the
// serving layer's wire protocol (serve/protocol) both parses and emits
// documents through it. Deliberately small: UTF-8 pass-through, \uXXXX
// escapes decoded as Latin-1/BMP code points, numbers as double. Parse
// errors carry a byte offset. dump() round-trips through parse(): object
// member order is preserved, integral numbers print without an exponent,
// the rest in shortest-round-trip form.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace psaflow::json {

class Value {
public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool bool_value = false;
    double number_value = 0.0;
    std::string string_value;
    std::vector<Value> elements;                          ///< Array
    std::vector<std::pair<std::string, Value>> members;   ///< Object, ordered

    [[nodiscard]] bool is_null() const { return kind == Kind::Null; }
    [[nodiscard]] bool is_object() const { return kind == Kind::Object; }
    [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
    [[nodiscard]] bool is_string() const { return kind == Kind::String; }
    [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
    [[nodiscard]] bool is_bool() const { return kind == Kind::Bool; }

    // Construction helpers for the write side.
    [[nodiscard]] static Value null();
    [[nodiscard]] static Value boolean(bool v);
    [[nodiscard]] static Value number(double v);
    [[nodiscard]] static Value string(std::string v);
    [[nodiscard]] static Value array();
    [[nodiscard]] static Value object();

    /// Object member insert-or-replace; returns *this for chaining.
    /// Asserts (via Error) when called on a non-object.
    Value& set(std::string key, Value v);
    /// Array append; asserts (via Error) when called on a non-array.
    Value& push(Value v);

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const Value* find(std::string_view key) const;

    // Typed getters with defaults (wrong-kind values yield the default, so
    // manifest readers can treat "absent" and "mistyped" uniformly).
    [[nodiscard]] std::string string_or(std::string def) const;
    [[nodiscard]] double number_or(double def) const;
    [[nodiscard]] bool bool_or(bool def) const;
};

/// Parse one JSON document (trailing whitespace allowed, trailing garbage
/// rejected; arrays and objects nested deeper than 256 levels rejected, so
/// hostile input cannot exhaust the stack). On failure returns nullopt and, when `error` is non-null,
/// stores a message with the byte offset of the problem.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

/// Serialise a document: compact single-line output, member order
/// preserved, strings escaped, NaN/Inf rendered as null (JSON has no
/// spelling for them).
[[nodiscard]] std::string dump(const Value& value);

} // namespace psaflow::json
