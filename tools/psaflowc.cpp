// psaflowc — command-line driver for the PSA-flow.
//
// Runs the paper's implemented design-flow on the bundled benchmark
// applications and writes every generated design source to disk, together
// with a machine-readable summary (CSV) of the predicted performance —
// i.e. the artefact a developer would take away from the toolflow.
//
//   psaflowc --list
//   psaflowc --app nbody --mode informed --out designs/
//   psaflowc --export-flow std.json          # builtin flow as a manifest
//   psaflowc --app nbody --flow myflow.json  # run a manifest-defined flow
//   psaflowc --app kmeans --mode uninformed --out designs/ --budget 0.001
//   psaflowc --app nbody --jobs 4 --trace-out trace.json
//   psaflowc --app nbody --trace-out flame.json --trace-format chrome
//   psaflowc --app nbody --explain why.json --explain-md why.md
//   psaflowc --app nbody --metrics-out nbody.prom
//   psaflowc --app nbody --cache-dir .psaflow-cache   # warm reruns
//   psaflowc --batch manifest.json --out designs/     # many apps, one
//                                                     # process, shared
//                                                     # pool and caches
//
// Batch manifest schema (JSON): either a bare array of request objects or
//   {
//     "jobs": 4,                  // optional; --jobs overrides
//     "cache_dir": ".cache",      // optional; --cache-dir overrides
//     "out": "designs",           // optional default output root
//     "requests": [
//       {"app": "nbody",          // required: bundled application name
//        "mode": "informed",      // optional (default "informed")
//        "budget": 0.001,         // optional USD-per-run budget
//        "threshold_x": 4.0,      // optional Fig. 3 intensity threshold
//        "deadline_ms": 500,      // optional per-request deadline
//        "flow": "myflow.json",   // optional flow manifest (path or
//                                 // inline object; flow/manifest.hpp)
//        "out": "designs/nbody"}  // optional (default "<out>/<app>-<i>")
//     ]
//   }
// A manifest entry is a psaflowd compile request (whose "flow" can only be
// the inline object: the daemon reads no paths off the wire): both drivers run
// requests through serve::execute_request, so a request behaves the same
// whether it arrives via --batch or over the daemon's socket. Requests run
// sequentially through one FlowSession, so later requests reuse the warm
// in-process caches and the persistent store; one failed request does not
// abort the rest (the driver exits 1 if any failed).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "flow/manifest.hpp"
#include "flow/standard_flow.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/decision.hpp"
#include "obs/flight.hpp"
#include "obs/prometheus.hpp"
#include "serve/service.hpp"
#include "support/cas/cas.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

using namespace psaflow;

namespace {

[[nodiscard]] bool valid_mode(const std::string& mode) {
    return mode == "informed" || mode == "uninformed";
}

/// Write `content` to `path`; false (message on stderr) when unwritable.
bool write_text_file(const std::string& path, const std::string& content) {
    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    file << content;
    return true;
}

/// Run one request in this process. Its spans, the flow's and the design
/// writer's, hang under one root span, so each request is one span tree.
serve::CompileOutcome execute_locally(flow::FlowSession& session,
                                      const serve::CompileRequest& req) {
    trace::ScopedSpan request_span("psaflowc:" + req.app, "cli");
    return serve::execute_request(session, req, /*cancel=*/nullptr,
                                  &trace::Registry::global());
}

/// Drop a flight-recorder digest for one locally executed request, so the
/// PSAFLOW_SLO_MS slow-request forensics behave in the CLI driver exactly
/// as they do in psaflowd (a breach logs a warn, echoed to stderr).
void record_flight(obs::FlightRecorder& recorder,
                   const serve::CompileRequest& req,
                   const serve::CompileOutcome& outcome) {
    obs::FlightRecord flight;
    flight.set_app(req.app);
    flight.set_lane("local");
    flight.exec_us = outcome.wall_us;
    flight.total_us = outcome.wall_us;
    flight.cache_hits = serve::cache_hits(outcome);
    if (!outcome.decisions.empty() &&
        !outcome.decisions.front().selected.empty())
        flight.set_winner(outcome.decisions.front().selected.front());
    flight.set_status(outcome.ok ? "ok" : to_string(outcome.error_kind));
    recorder.record(flight);
}

/// Read + parse the batch manifest; returns false (message on stderr) on
/// malformed input.
bool load_batch(const std::string& path,
                   serve::ManifestDefaults& defaults,
                   std::vector<serve::CompileRequest>& requests) {
    std::ifstream file(path);
    if (!file) {
        std::cerr << "cannot read batch manifest '" << path << "'\n";
        return false;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();

    std::string error;
    const auto doc = json::parse(buffer.str(), &error);
    if (!doc.has_value()) {
        std::cerr << "batch manifest '" << path << "': " << error << "\n";
        return false;
    }
    if (auto parse_error = serve::parse_manifest(*doc, defaults, requests)) {
        std::cerr << "batch manifest '" << path << "': " << *parse_error
                  << "\n";
        return false;
    }
    return true;
}

/// The manifest's session settings apply where `flags` left theirs unset,
/// ahead of the environment.
int run_batch(const std::string& manifest_path, cli::FlowFlags flags,
              const cli::Environment& env, obs::FlightRecorder& recorder,
              std::string out_dir, bool out_dir_given) {
    serve::ManifestDefaults defaults;
    if (out_dir_given) defaults.out_root = out_dir;
    std::vector<serve::CompileRequest> requests;
    if (!load_batch(manifest_path, defaults, requests)) return 2;
    if (flags.jobs == 0) flags.jobs = defaults.jobs;
    if (flags.cache_dir.empty()) flags.cache_dir = defaults.cache_dir;
    if (requests.empty()) {
        std::cerr << "batch manifest '" << manifest_path
                  << "': no requests\n";
        return 2;
    }

    flow::FlowSession session(flow::session_options(flags, env));

    std::cout << "running " << requests.size()
              << " batch request(s) through one flow session...\n";
    TablePrinter batch_table(
        {"#", "app", "mode", "designs", "best speedup", "status"});
    int failures = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const serve::CompileRequest& req = requests[i];
        const serve::CompileOutcome outcome = execute_locally(session, req);
        record_flight(recorder, req, outcome);
        if (!outcome.ok) {
            ++failures;
            std::cerr << "request " << i << " (" << req.app
                      << "): " << outcome.error << "\n";
        }
        batch_table.add_row(
            {std::to_string(i), req.app, req.mode,
             outcome.ok ? std::to_string(outcome.design_count) : "-",
             outcome.ok && outcome.best_speedup > 0.0
                 ? format_compact(outcome.best_speedup, 4) + "x"
                 : "-",
             outcome.ok ? "ok" : "FAILED"});
    }
    batch_table.print(std::cout);
    std::cout << (requests.size() - failures) << "/" << requests.size()
              << " request(s) succeeded\n";
    return failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    const cli::Environment env = cli::load_environment();
    bool list = false;
    bool cache_clear = false;
    std::string app_name;
    std::string mode = "informed";
    std::string out_dir = "designs";
    std::string batch_manifest;
    double budget = -1.0;
    double threshold_x = 4.0;
    long long deadline_ms = 0;
    std::string trace_format = "json";
    std::string metrics_out;
    std::string explain_out;
    std::string explain_md_out;
    std::string flow_file;
    std::string export_flow;
    cli::FlowFlags flow_flags;

    cli::OptionParser parser(
        argv[0],
        {"--list",
         "--app <name> [--mode informed|uninformed] [--out <dir>]\n"
         "      [--budget <usd-per-run>] [--threshold-x <flops/B>]\n"
         "      [--deadline-ms <n>] [--jobs <n>] [--trace-out <file.json>]\n"
         "      [--trace-format json|chrome] [--metrics-out <file>]\n"
         "      [--explain <file.json>] [--explain-md <file.md>]\n"
         "      [--cache-dir <dir>] [--cache-max-mb <n>]\n"
         "      [--flow <manifest.json>]",
         "--batch <manifest.json> [--out <dir>] [--jobs <n>] "
         "[--cache-dir <dir>]",
         "--export-flow <file> [--mode informed|uninformed]"});
    parser.flag("--list", "list the bundled applications", &list);
    parser.str("--app", "<name>", "application to compile", &app_name);
    parser.str("--mode", "<mode>", "informed|uninformed (default informed)",
               &mode);
    parser.str("--out", "<dir>", "output directory (default designs)",
               &out_dir);
    parser.str("--batch", "<manifest.json>",
               "run every request of a JSON manifest", &batch_manifest);
    parser.str("--flow", "<manifest.json>",
               "run a manifest-defined flow instead of the builtin",
               &flow_file);
    parser.str("--export-flow", "<file>",
               "write the builtin flow as a manifest ('-' for stdout)",
               &export_flow);
    parser.real("--budget", "<usd-per-run>", "Fig. 3 cost budget", &budget);
    parser.real("--threshold-x", "<flops/B>",
                "arithmetic-intensity threshold (default 4)", &threshold_x);
    parser.integer("--deadline-ms", "<n>",
                   "abort the flow after <n> ms (0 = no deadline)",
                   &deadline_ms, /*min=*/0);
    parser.str("--trace-format", "<fmt>",
               "--trace-out format: json|chrome (default json)",
               &trace_format);
    parser.str("--metrics-out", "<file>",
               "dump run counters in Prometheus text format", &metrics_out);
    parser.str("--explain", "<file.json>",
               "write the flow's branch-decision provenance as JSON",
               &explain_out);
    parser.str("--explain-md", "<file.md>",
               "write the decision provenance as a markdown report",
               &explain_md_out);
    parser.flag("--cache-clear", "evict the persistent cache and exit",
                &cache_clear);
    cli::add_flow_flags(parser, flow_flags);

    if (!parser.parse(argc, argv)) return 2;
    if (trace_format != "json" && trace_format != "chrome") {
        std::cerr << "--trace-format must be 'json' or 'chrome'\n";
        return 2;
    }
    if ((!explain_out.empty() || !explain_md_out.empty()) &&
        !batch_manifest.empty()) {
        std::cerr << "--explain/--explain-md report a single flow; use "
                     "--app, not --batch\n";
        return 2;
    }
    if (!flow_file.empty() && !batch_manifest.empty()) {
        std::cerr << "--flow applies to a single --app run; batch entries "
                     "carry their own \"flow\" member\n";
        return 2;
    }

    if (!export_flow.empty()) {
        if (!valid_mode(mode)) {
            std::cerr << "--mode must be 'informed' or 'uninformed'\n";
            return 2;
        }
        const flow::Mode m = mode == "informed" ? flow::Mode::Informed
                                                : flow::Mode::Uninformed;
        const std::string document =
            json::dump(flow::to_manifest(flow::standard_flow(m))) + "\n";
        if (export_flow == "-") {
            std::cout << document;
        } else {
            if (!write_text_file(export_flow, document)) return 1;
            std::cout << "wrote the " << mode
                      << " standard flow as a manifest to " << export_flow
                      << "\n";
        }
        return 0;
    }

    if (list) {
        for (const apps::Application* app : apps::all_applications())
            std::cout << app->name << ": " << app->description << "\n";
        return 0;
    }

    if (cache_clear) {
        flow::FlowSession session(flow::session_options(flow_flags, env));
        if (cas::CasStore* store = session.store()) {
            store->clear();
            std::cout << "cleared cache at " << store->root().string()
                      << "\n";
        } else {
            std::cerr << "no cache configured (--cache-dir or "
                         "PSAFLOW_CACHE_DIR)\n";
            return 2;
        }
        if (app_name.empty() && batch_manifest.empty()) return 0;
    }

    if (!flow_flags.trace_out.empty())
        trace::Registry::global().set_enabled(true);

    obs::FlightRecorder recorder(
        env.flight_capacity, static_cast<std::uint64_t>(env.slo_ms) * 1000);
    int status = 0;
    if (!batch_manifest.empty()) {
        status = run_batch(batch_manifest, flow_flags, env, recorder, out_dir,
                           /*out_dir_given=*/out_dir != "designs");
        if (status == 2) {
            std::cerr << parser.usage();
            return 2;
        }
    } else {
        if (app_name.empty()) {
            std::cerr << parser.usage();
            return 2;
        }
        if (!valid_mode(mode)) {
            std::cerr << "--mode must be 'informed' or 'uninformed'\n";
            return 2;
        }

        serve::CompileRequest req;
        req.app = app_name;
        req.mode = mode;
        req.budget = budget;
        req.threshold_x = threshold_x;
        req.out_dir = out_dir;
        req.deadline_ms = deadline_ms;
        if (!flow_file.empty()) {
            // Validate up front so a broken manifest is a usage error with
            // a located diagnostic, not a mid-flow failure.
            try {
                req.flow = std::make_shared<const flow::ManifestFlow>(
                    flow::read_manifest_file(flow_file));
            } catch (const Error& e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        }

        flow::FlowSession session(flow::session_options(flow_flags, env));

        std::cout << "running the " << mode << " PSA-flow on '" << app_name
                  << "'...\n";
        const serve::CompileOutcome outcome = execute_locally(session, req);
        record_flight(recorder, req, outcome);
        if (!outcome.ok) {
            std::cerr << outcome.error << "\n";
            return outcome.error.rfind("flow failed:", 0) == 0 ? 1 : 2;
        }
        TablePrinter table({"design", "speedup", "LOC delta", "file"});
        for (const serve::DesignRow& row : outcome.designs) {
            table.add_row({row.name,
                           row.synthesizable
                               ? format_compact(row.speedup, 4) + "x"
                               : "overmapped",
                           "+" + format_compact(100.0 * row.loc_delta, 3) +
                               "%",
                           row.filename});
        }
        table.print(std::cout);
        std::cout << "reference 1-thread hotspot time: "
                  << format_compact(outcome.reference_seconds, 4) << " s\n";
        std::cout << "wrote " << outcome.design_count << " design(s) and "
                  << outcome.summary_path << "\n";

        if (!explain_out.empty()) {
            const json::Value report = obs::decisions_json(
                app_name, mode, outcome.decisions);
            if (!write_text_file(explain_out, json::dump(report) + "\n"))
                return 1;
            std::cout << "wrote decision report (" << outcome.decisions.size()
                      << " branch decision(s)) to " << explain_out << "\n";
        }
        if (!explain_md_out.empty()) {
            if (!write_text_file(
                    explain_md_out,
                    obs::decisions_markdown(app_name, mode,
                                            outcome.decisions)))
                return 1;
            std::cout << "wrote decision report to " << explain_md_out
                      << "\n";
        }
    }

    if (!flow_flags.trace_out.empty()) {
        const std::string document =
            trace_format == "chrome"
                ? obs::to_chrome_json(trace::Registry::global())
                : trace::Registry::global().to_json() + "\n";
        if (!write_text_file(flow_flags.trace_out, document)) return 1;
        std::cout << "wrote " << trace_format << " trace to "
                  << flow_flags.trace_out << "\n";
    }
    if (!metrics_out.empty()) {
        if (!write_text_file(
                metrics_out,
                obs::render_counters(trace::Registry::global().counters())))
            return 1;
        std::cout << "wrote metrics to " << metrics_out << "\n";
    }
    return status;
}
