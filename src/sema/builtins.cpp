#include "sema/builtins.hpp"

#include <array>
#include <cmath>

#include "support/error.hpp"

namespace psaflow::sema {

namespace {

using ast::Type;

// Flop costs approximate instruction counts on contemporary hardware and are
// the per-call charge used by the arithmetic-intensity analysis and the
// device performance models. They matter *relatively* (exp is ~8x an add),
// not absolutely.
constexpr std::array<BuiltinInfo, 26> kBuiltins = {{
    {"sqrt", 1, Type::Double, 4, "sqrtf", false},
    {"sqrtf", 1, Type::Float, 4, "", true},
    {"exp", 1, Type::Double, 8, "expf", false},
    {"expf", 1, Type::Float, 8, "", true},
    {"log", 1, Type::Double, 8, "logf", false},
    {"logf", 1, Type::Float, 8, "", true},
    {"pow", 2, Type::Double, 16, "powf", false},
    {"powf", 2, Type::Float, 16, "", true},
    {"sin", 1, Type::Double, 8, "sinf", false},
    {"sinf", 1, Type::Float, 8, "", true},
    {"cos", 1, Type::Double, 8, "cosf", false},
    {"cosf", 1, Type::Float, 8, "", true},
    {"tanh", 1, Type::Double, 10, "tanhf", false},
    {"tanhf", 1, Type::Float, 10, "", true},
    {"erf", 1, Type::Double, 12, "erff", false},
    {"erff", 1, Type::Float, 12, "", true},
    {"erfc", 1, Type::Double, 12, "erfcf", false},
    {"erfcf", 1, Type::Float, 12, "", true},
    {"fabs", 1, Type::Double, 1, "fabsf", false},
    {"fabsf", 1, Type::Float, 1, "", true},
    {"floor", 1, Type::Double, 1, "floorf", false},
    {"floorf", 1, Type::Float, 1, "", true},
    {"fmin", 2, Type::Double, 1, "fminf", false},
    {"fminf", 2, Type::Float, 1, "", true},
    {"fmax", 2, Type::Double, 1, "fmaxf", false},
    {"fmaxf", 2, Type::Float, 1, "", true},
}};

double eval_double(std::string_view base, std::span<const double> a) {
    if (base == "sqrt") {
        ensure(a[0] >= 0.0, "sqrt of negative value");
        return std::sqrt(a[0]);
    }
    if (base == "exp") return std::exp(a[0]);
    if (base == "log") {
        ensure(a[0] > 0.0, "log of non-positive value");
        return std::log(a[0]);
    }
    if (base == "pow") return std::pow(a[0], a[1]);
    if (base == "sin") return std::sin(a[0]);
    if (base == "cos") return std::cos(a[0]);
    if (base == "tanh") return std::tanh(a[0]);
    if (base == "erf") return std::erf(a[0]);
    if (base == "erfc") return std::erfc(a[0]);
    if (base == "fabs") return std::fabs(a[0]);
    if (base == "floor") return std::floor(a[0]);
    if (base == "fmin") return std::fmin(a[0], a[1]);
    if (base == "fmax") return std::fmax(a[0], a[1]);
    throw Error("eval_builtin: unknown builtin '" + std::string(base) + "'");
}

float eval_single(std::string_view base, float x, float y) {
    if (base == "sqrt") {
        ensure(x >= 0.0f, "sqrtf of negative value");
        return std::sqrt(x);
    }
    if (base == "exp") return std::exp(x);
    if (base == "log") {
        ensure(x > 0.0f, "logf of non-positive value");
        return std::log(x);
    }
    if (base == "pow") return std::pow(x, y);
    if (base == "sin") return std::sin(x);
    if (base == "cos") return std::cos(x);
    if (base == "tanh") return std::tanh(x);
    if (base == "erf") return std::erf(x);
    if (base == "erfc") return std::erfc(x);
    if (base == "fabs") return std::fabs(x);
    if (base == "floor") return std::floor(x);
    if (base == "fmin") return std::fmin(x, y);
    if (base == "fmax") return std::fmax(x, y);
    throw Error("eval_builtin: unknown builtin '" + std::string(base) + "'");
}

} // namespace

const BuiltinInfo* find_builtin(std::string_view name) {
    for (const auto& b : kBuiltins) {
        if (b.name == name) return &b;
    }
    return nullptr;
}

std::span<const BuiltinInfo> all_builtins() { return kBuiltins; }

double eval_builtin(const BuiltinInfo& info, std::span<const double> args) {
    // Called once per builtin call in a profiled run: compose the message
    // only on failure.
    if (static_cast<int>(args.size()) != info.arity)
        throw Error("builtin '" + std::string(info.name) + "' arity mismatch");
    if (info.is_single) {
        // Strip the trailing 'f' to get the base operation, compute in float.
        std::string_view base = info.name.substr(0, info.name.size() - 1);
        const float x = static_cast<float>(args[0]);
        const float y = args.size() > 1 ? static_cast<float>(args[1]) : 0.0f;
        return static_cast<double>(eval_single(base, x, y));
    }
    return eval_double(info.name, args);
}

} // namespace psaflow::sema
