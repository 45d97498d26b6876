// Runtime values and buffers for the HLC interpreter.
//
// The interpreter is the substitute for native execution in the paper's
// *dynamic* design-flow tasks (hotspot detection, trip-count, data-movement
// and alias analyses all carry the "requires program execution" marker in
// Fig. 4). Scalars are stored widened; the static type tag decides rounding
// so single-precision transforms are observable in results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ast/type.hpp"
#include "support/error.hpp"

namespace psaflow::interp {

/// `a + b` and `a * b` with the NaN of a two-NaN operation pinned to `a`'s.
/// IEEE 754 leaves that choice open, x86 takes the first operand's NaN, and
/// the compiler may swap the operands of a commutative op, so without this
/// the two engines can disagree on the sign of a NaN (fabs or negation
/// makes NaNs of both signs). Both engines compute these ops through here.
template <typename T>
[[nodiscard]] T add_pinned(T a, T b) {
    const T r = a + b;
    return r != r && a != a ? a : r;
}

template <typename T>
[[nodiscard]] T mul_pinned(T a, T b) {
    const T r = a * b;
    return r != r && a != a ? a : r;
}

/// A scalar runtime value with its HLC type.
class Value {
public:
    Value() = default;

    [[nodiscard]] static Value of_int(long long v) {
        Value out;
        out.type_ = ast::Type::Int;
        out.int_ = v;
        return out;
    }
    [[nodiscard]] static Value of_bool(bool v) {
        Value out;
        out.type_ = ast::Type::Bool;
        out.bool_ = v;
        return out;
    }
    [[nodiscard]] static Value of_double(double v) {
        Value out;
        out.type_ = ast::Type::Double;
        out.num_ = v;
        return out;
    }
    /// Stored at float precision (rounded), typed Float.
    [[nodiscard]] static Value of_float(double v) {
        Value out;
        out.type_ = ast::Type::Float;
        out.num_ = static_cast<double>(static_cast<float>(v));
        return out;
    }
    [[nodiscard]] static Value void_value() { return Value{}; }

    [[nodiscard]] ast::Type type() const { return type_; }

    /// Numeric read with implicit conversion; throws for bool/void.
    [[nodiscard]] double as_double() const {
        switch (type_) {
            case ast::Type::Int: return static_cast<double>(int_);
            case ast::Type::Float:
            case ast::Type::Double: return num_;
            default: throw InterpError("value is not numeric");
        }
    }

    /// Integer read; floating values truncate toward zero (C semantics).
    [[nodiscard]] long long as_int() const {
        switch (type_) {
            case ast::Type::Int: return int_;
            case ast::Type::Float:
            case ast::Type::Double: return static_cast<long long>(num_);
            default: throw InterpError("value is not numeric");
        }
    }

    [[nodiscard]] bool as_bool() const {
        if (type_ != ast::Type::Bool)
            throw InterpError("value is not bool");
        return bool_;
    }

    /// Convert to the declared type `want` (assignment / parameter passing).
    [[nodiscard]] Value convert_to(ast::Type want) const {
        switch (want) {
            case ast::Type::Int: return of_int(as_int());
            case ast::Type::Float: return of_float(as_double());
            case ast::Type::Double: return of_double(as_double());
            case ast::Type::Bool: return of_bool(as_bool());
            default: throw InterpError("cannot convert to void");
        }
    }

private:
    ast::Type type_ = ast::Type::Void;
    double num_ = 0.0;
    long long int_ = 0;
    bool bool_ = false;
};

/// A typed linear buffer backing an HLC array. Buffers have identity (`id`)
/// — the dynamic pointer-alias analysis checks whether two kernel arguments
/// name the same buffer.
class Buffer {
public:
    Buffer(ast::Type elem, std::size_t size, std::string name = {})
        : elem_(elem), name_(std::move(name)), data_(size, 0.0),
          id_(next_id()) {
        ensure(is_numeric(elem), "buffers hold numeric elements");
    }

    [[nodiscard]] ast::Type elem_type() const { return elem_; }
    [[nodiscard]] std::size_t size() const { return data_.size(); }
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] int elem_bytes() const { return ast::size_of(elem_); }

    [[nodiscard]] double load(long long index) const {
        check(index);
        return data_[static_cast<std::size_t>(index)];
    }

    void store(long long index, double value) {
        check(index);
        // Stores round to the element type so float arrays behave like
        // float arrays.
        if (elem_ == ast::Type::Float)
            value = static_cast<double>(static_cast<float>(value));
        else if (elem_ == ast::Type::Int)
            value = static_cast<double>(static_cast<long long>(value));
        data_[static_cast<std::size_t>(index)] = value;
    }

    [[nodiscard]] const std::vector<double>& raw() const { return data_; }
    [[nodiscard]] std::vector<double>& raw() { return data_; }

private:
    void check(long long index) const {
        if (index < 0 || static_cast<std::size_t>(index) >= data_.size())
            [[unlikely]] throw_out_of_bounds(index);
    }

    /// Out of line, so check() stays small enough to inline into both
    /// interpreters' element accesses.
    [[noreturn]] void throw_out_of_bounds(long long index) const;

    static int next_id();

    ast::Type elem_;
    std::string name_;
    std::vector<double> data_;
    int id_;
};

using BufferPtr = std::shared_ptr<Buffer>;

} // namespace psaflow::interp
