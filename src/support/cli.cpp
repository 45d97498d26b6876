#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "obs/log.hpp"
#include "support/cas/cas.hpp"
#include "support/string_util.hpp"
#include "support/trace.hpp"

namespace psaflow::cli {

OptionParser::OptionParser(std::string program,
                           std::vector<std::string> synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

void OptionParser::flag(const std::string& name, const std::string& help,
                        bool* out) {
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.takes_value = false;
    opt.apply = [out](const char*) -> std::optional<std::string> {
        *out = true;
        return std::nullopt;
    };
    options_.push_back(std::move(opt));
}

void OptionParser::str(const std::string& name, const std::string& value_name,
                       const std::string& help, std::string* out) {
    Option opt;
    opt.name = name;
    opt.value_name = value_name;
    opt.help = help;
    opt.apply = [out](const char* raw) -> std::optional<std::string> {
        *out = raw;
        return std::nullopt;
    };
    options_.push_back(std::move(opt));
}

void OptionParser::multi(const std::string& name,
                         const std::string& value_name,
                         const std::string& help,
                         std::vector<std::string>* out) {
    Option opt;
    opt.name = name;
    opt.value_name = value_name;
    opt.help = help;
    opt.apply = [out](const char* raw) -> std::optional<std::string> {
        out->emplace_back(raw);
        return std::nullopt;
    };
    options_.push_back(std::move(opt));
}

void OptionParser::integer(const std::string& name,
                           const std::string& value_name,
                           const std::string& help, long long* out,
                           std::optional<long long> min,
                           std::optional<long long> max) {
    Option opt;
    opt.name = name;
    opt.value_name = value_name;
    opt.help = help;
    opt.apply = [name, out, min,
                 max](const char* raw) -> std::optional<std::string> {
        const auto value = parse_int(raw);
        if (!value)
            return "invalid integer '" + std::string(raw) + "' for " + name;
        if (min && *value < *min)
            return name + " must be >= " + std::to_string(*min);
        if (max && *value > *max)
            return name + " must be <= " + std::to_string(*max);
        *out = *value;
        return std::nullopt;
    };
    options_.push_back(std::move(opt));
}

void OptionParser::real(const std::string& name, const std::string& value_name,
                        const std::string& help, double* out) {
    Option opt;
    opt.name = name;
    opt.value_name = value_name;
    opt.help = help;
    opt.apply = [name, out](const char* raw) -> std::optional<std::string> {
        const auto value = parse_double(raw);
        if (!value)
            return "invalid number '" + std::string(raw) + "' for " + name;
        *out = *value;
        return std::nullopt;
    };
    options_.push_back(std::move(opt));
}

bool OptionParser::fail(const std::string& message) const {
    std::cerr << message << "\n" << usage();
    return false;
}

bool OptionParser::parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cerr << usage();
            return false;
        }
        const Option* match = nullptr;
        for (const Option& opt : options_) {
            if (opt.name == arg) {
                match = &opt;
                break;
            }
        }
        if (match == nullptr) return fail("unknown option '" + arg + "'");
        const char* value = nullptr;
        if (match->takes_value) {
            if (i + 1 >= argc) return fail("missing value for " + arg);
            value = argv[++i];
        }
        if (auto error = match->apply(value)) return fail(*error);
    }
    return true;
}

std::string OptionParser::usage() const {
    std::ostringstream os;
    const std::string prefix = "usage: " + program_ + " ";
    const std::string cont(prefix.size() - program_.size() - 1, ' ');
    if (synopsis_.empty()) {
        os << prefix << "[options]\n";
    } else {
        for (std::size_t i = 0; i < synopsis_.size(); ++i)
            os << (i == 0 ? prefix : cont + program_ + " ") << synopsis_[i]
               << "\n";
    }
    std::size_t width = 0;
    for (const Option& opt : options_) {
        std::size_t w = opt.name.size();
        if (!opt.value_name.empty()) w += 1 + opt.value_name.size();
        width = std::max(width, w);
    }
    os << "options:\n";
    for (const Option& opt : options_) {
        std::string left = opt.name;
        if (!opt.value_name.empty()) left += " " + opt.value_name;
        os << "  " << left << std::string(width - left.size() + 2, ' ')
           << opt.help << "\n";
    }
    return std::move(os).str();
}

void add_flow_flags(OptionParser& parser, FlowFlags& flags) {
    parser.integer("--jobs", "<n>",
                   "worker threads for branch paths (0 = PSAFLOW_JOBS / "
                   "hardware)",
                   &flags.jobs, /*min=*/0);
    parser.str("--trace-out", "<file.json>",
               "write the task trace registry as JSON", &flags.trace_out);
    parser.str("--cache-dir", "<dir>",
               "persistent content-addressed cache root (default: "
               "PSAFLOW_CACHE_DIR; unset disables disk caching)",
               &flags.cache_dir);
    parser.integer("--cache-max-mb", "<mb>",
                   "disk cache size cap in MiB (0 = PSAFLOW_CACHE_MAX_MB / "
                   "256)",
                   &flags.cache_max_mb, /*min=*/0, cas::kMaxCacheMb);
}

namespace {

/// The leading integer of variable `name` (strtoll), 0 when unset.
long long env_leading_int(const char* name) {
    const char* raw = std::getenv(name);
    return raw == nullptr ? 0 : std::strtoll(raw, nullptr, 10);
}

void env_log_level(const char* name, void (obs::Logger::*set)(obs::LogLevel)) {
    if (const char* raw = std::getenv(name))
        if (const auto level = obs::parse_log_level(raw))
            (obs::Logger::global().*set)(*level);
}

} // namespace

Environment load_environment() {
    if (const char* raw = std::getenv("PSAFLOW_TRACE"))
        trace::Registry::global().set_enabled(std::string(raw) != "0");
    env_log_level("PSAFLOW_LOG", &obs::Logger::set_level);
    env_log_level("PSAFLOW_LOG_STDERR", &obs::Logger::set_echo_level);

    Environment env;
    if (const long long jobs = env_leading_int("PSAFLOW_JOBS"); jobs >= 1)
        env.jobs = std::min(jobs, 256LL);
    if (const char* raw = std::getenv("PSAFLOW_CACHE"))
        env.profile_cache = std::string(raw) != "0";
    if (const char* raw = std::getenv("PSAFLOW_CACHE_DIR")) env.cache_dir = raw;
    if (const char* raw = std::getenv("PSAFLOW_CACHE_MAX_MB")) {
        const auto mb = parse_int(raw);
        if (mb && *mb > 0 && *mb <= cas::kMaxCacheMb) env.cache_max_mb = *mb;
    }
    if (const long long capacity = env_leading_int("PSAFLOW_FLIGHT_CAPACITY");
        capacity > 0)
        env.flight_capacity = static_cast<std::size_t>(capacity);
    env.slo_ms = std::max(env_leading_int("PSAFLOW_SLO_MS"), 0LL);
    return env;
}

} // namespace psaflow::cli
