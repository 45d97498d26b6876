// Shared command-line option handling for the psaflow tools.
//
// psaflowc and psaflow-fuzz used to carry two hand-rolled copies of the
// same argv loop (next()/next_int()/next_double() lambdas, usage banners,
// checked numeric parsing). This typed options table replaces both:
//
//     cli::OptionParser parser("psaflowc", {"--list", "--app <name> ..."});
//     parser.str("--app", "<name>", "application to compile", &app_name);
//     parser.integer("--jobs", "<n>", "worker threads", &jobs, /*min=*/0);
//     if (!parser.parse(argc, argv)) return 2;
//
// Error behaviour matches the historical drivers, which the CLI tests pin
// down: every malformed invocation ("missing value for --x", "invalid
// integer 'y' for --x", "--x must be >= n", "unknown option '--z'") prints
// the message and the generated usage banner to stderr, and parse()
// returns false so the caller exits with status 2. `--help`/`-h` also
// print the banner and return false.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace psaflow::cli {

class OptionParser {
public:
    /// `synopsis` lines are rendered as "usage: <program> <line>" (first)
    /// and "       <program> <line>" (rest).
    OptionParser(std::string program, std::vector<std::string> synopsis);

    /// Boolean switch: present sets `*out` to true.
    void flag(const std::string& name, const std::string& help, bool* out);

    /// String-valued option.
    void str(const std::string& name, const std::string& value_name,
             const std::string& help, std::string* out);

    /// Checked integer option; `min`/`max` (inclusive) violations report
    /// "--name must be >= min" / "--name must be <= max".
    void integer(const std::string& name, const std::string& value_name,
                 const std::string& help, long long* out,
                 std::optional<long long> min = std::nullopt,
                 std::optional<long long> max = std::nullopt);

    /// Checked floating-point option.
    void real(const std::string& name, const std::string& value_name,
              const std::string& help, double* out);

    /// Repeatable string option: every occurrence appends to `*out`
    /// (psaflow-router's `--shard a=... --shard b=...`).
    void multi(const std::string& name, const std::string& value_name,
               const std::string& help, std::vector<std::string>* out);

    /// Parse the whole argv. On any error (or --help), prints to stderr
    /// and returns false; the caller is expected to exit with status 2.
    [[nodiscard]] bool parse(int argc, char** argv);

    [[nodiscard]] std::string usage() const;

private:
    struct Option {
        std::string name;
        std::string value_name; ///< empty for flags
        std::string help;
        /// Consumes the (already validated non-null) value; returns an
        /// error message on a malformed value, nullopt on success.
        std::function<std::optional<std::string>(const char*)> apply;
        bool takes_value = true;
    };

    [[nodiscard]] bool fail(const std::string& message) const;

    std::string program_;
    std::vector<std::string> synopsis_;
    std::vector<Option> options_;
};

/// The flow-running flags every driver shares. `add_flow_flags` registers
/// them with identical names, validation and help text in each tool, so
/// `--jobs/--trace-out/--cache-dir/--cache-max-mb` mean the same thing
/// everywhere.
struct FlowFlags {
    long long jobs = 0;        ///< 0 = PSAFLOW_JOBS / hardware concurrency
    std::string trace_out;     ///< trace registry JSON dump path
    std::string cache_dir;     ///< disk cache root ("" = PSAFLOW_CACHE_DIR)
    long long cache_max_mb = 0; ///< disk cache size cap (0 = env / default)
};

void add_flow_flags(OptionParser& parser, FlowFlags& flags);

/// The PSAFLOW_* environment (README "Environment" lists each variable
/// with its default and overriding flag). This is the only place that
/// reads it: the library takes every setting as an argument. A malformed
/// or non-positive value reads as unset.
struct Environment {
    long long jobs = 0;         ///< PSAFLOW_JOBS, at most 256 (0 = unset)
    bool profile_cache = true;  ///< PSAFLOW_CACHE ("0" disables)
    std::string cache_dir;      ///< PSAFLOW_CACHE_DIR ("" = unset)
    long long cache_max_mb = 0; ///< PSAFLOW_CACHE_MAX_MB (0 = unset)
    std::size_t flight_capacity = 256; ///< PSAFLOW_FLIGHT_CAPACITY
    long long slo_ms = 0;       ///< PSAFLOW_SLO_MS (0 = no SLO)
};

/// Read every PSAFLOW_* variable, once, from a tool's main. The
/// process-wide sinks take theirs here: PSAFLOW_TRACE ("0" disables span
/// collection) sets trace::Registry::global(), PSAFLOW_LOG and
/// PSAFLOW_LOG_STDERR set obs::Logger::global()'s capture and echo
/// levels. The rest are returned for the tool to pass on.
[[nodiscard]] Environment load_environment();

} // namespace psaflow::cli
