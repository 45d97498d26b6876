// perfbench-probe: times single calls into psaflow's public layer functions,
// from outside the program, for the benchmark's traced run.
//
//   perfbench-probe --apps nbody,kmeans --cas-dir work/probe-cas
//                   --frames frames.jsonl
//
// For every app it parses, checks, prints, clones, lowers, runs and emits
// the bundled source kReps times and reports the median milliseconds of
// each call. It also round-trips every captured wire frame (one JSON
// document per line of --frames) through json::parse/json::dump, and puts
// and gets each app's emitted design in a fresh CAS store. Output is one
// JSON object on stdout.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/workload.hpp"
#include "apps/apps.hpp"
#include "ast/clone.hpp"
#include "ast/printer.hpp"
#include "codegen/codegen.hpp"
#include "frontend/parser.hpp"
#include "interp/bytecode.hpp"
#include "interp/interpreter.hpp"
#include "sema/type_check.hpp"
#include "support/cas/cas.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

using namespace psaflow;

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kReps = 9;

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over kReps calls of `fn`, in units of `scale` seconds.
template <typename Fn>
double time_median(double scale, Fn&& fn) {
    std::vector<double> samples;
    for (int i = 0; i < kReps; ++i) {
        const auto start = Clock::now();
        fn();
        samples.push_back(
            std::chrono::duration<double>(Clock::now() - start).count() /
            scale);
    }
    return median(std::move(samples));
}

std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> out;
    std::stringstream stream(text);
    std::string item;
    while (std::getline(stream, item, sep))
        if (!item.empty()) out.push_back(item);
    return out;
}

json::Value num(double v) { return json::Value::number(v); }

} // namespace

int main(int argc, char** argv) {
    std::string apps_arg;
    std::string frames_path;
    std::string cas_dir;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--apps") apps_arg = argv[i + 1];
        else if (flag == "--frames") frames_path = argv[i + 1];
        else if (flag == "--cas-dir") cas_dir = argv[i + 1];
        else {
            std::cerr << "perfbench-probe: unknown flag " << flag << "\n";
            return 2;
        }
    }
    if (apps_arg.empty() || cas_dir.empty() || frames_path.empty()) {
        std::cerr << "usage: perfbench-probe --apps a,b --cas-dir <dir> "
                     "--frames <file.jsonl>\n";
        return 2;
    }

    constexpr double kMs = 1e-3;
    constexpr double kUs = 1e-6;
    trace::Registry::global().set_enabled(false);
    cas::CasStore store(cas_dir);
    std::uint64_t next_key = 0x5eed0000ull;

    json::Value apps = json::Value::object();
    std::vector<double> cas_get, cas_put;
    for (const std::string& name : split(apps_arg, ',')) {
        const apps::Application& app = apps::application_by_name(name);
        json::Value row = json::Value::object();

        row.set("parse_ms", num(time_median(kMs, [&] {
                    (void)frontend::parse_module(app.source, app.name);
                })));
        auto module = frontend::parse_module(app.source, app.name);
        row.set("check_ms", num(time_median(kMs, [&] {
                    (void)sema::check(*module);
                })));
        const sema::TypeInfo types = sema::check(*module);
        row.set("print_ms", num(time_median(kMs, [&] {
                    (void)ast::to_source(*module);
                })));
        row.set("clone_ms", num(time_median(kMs, [&] {
                    (void)ast::clone_module(*module);
                })));
        row.set("lower_ms", num(time_median(kMs, [&] {
                    (void)interp::bc::compile(*module, types);
                })));

        // One whole-program run at profile scale, as detect_hotspots makes
        // it; the step counter is exact and engine-independent.
        const auto args = app.workload.make_args(app.workload.profile_scale);
        interp::InterpOptions options;
        options.profile = true;
        options.engine = interp::Engine::Vm;
        trace::Registry& registry = trace::Registry::current();
        const std::uint64_t steps_before = registry.counter("interp.steps");
        (void)interp::run_function(*module, types, app.workload.entry, args,
                                   options);
        const std::uint64_t steps =
            registry.counter("interp.steps") - steps_before;
        row.set("steps", num(double(steps)));
        row.set("vm_ms", num(time_median(kMs, [&] {
                    (void)interp::run_function(*module, types,
                                               app.workload.entry, args,
                                               options);
                })));

        codegen::DesignSpec spec;
        spec.app_name = app.name;
        spec.target = codegen::TargetKind::CpuOpenMp;
        std::string design;
        row.set("emit_ms", num(time_median(kMs, [&] {
                    design = codegen::emit_design(*module, types, spec);
                })));
        apps.set(name, std::move(row));

        for (int i = 0; i < kReps; ++i) {
            const std::uint64_t key = next_key++;
            auto start = Clock::now();
            store.put(key, design);
            cas_put.push_back(
                std::chrono::duration<double>(Clock::now() - start).count() /
                kMs);
            start = Clock::now();
            const auto payload = store.get(key);
            cas_get.push_back(
                std::chrono::duration<double>(Clock::now() - start).count() /
                kMs);
            if (!payload.has_value() || *payload != design) {
                std::cerr << "perfbench-probe: CAS round trip mismatch\n";
                return 1;
            }
        }
    }

    json::Value out = json::Value::object();
    out.set("apps", std::move(apps));
    out.set("cas_get_ms", num(median(cas_get)));
    out.set("cas_put_ms", num(median(cas_put)));

    // cold_compile serves no frames, so the file may be empty.
    std::vector<double> parse_us, dump_us;
    std::ifstream file(frames_path);
    std::string line;
    while (std::getline(file, line)) {
        if (line.empty()) continue;
        std::string error;
        const auto doc = json::parse(line, &error);
        if (!doc.has_value()) {
            std::cerr << "perfbench-probe: bad frame: " << error << "\n";
            return 1;
        }
        parse_us.push_back(
            time_median(kUs, [&] { (void)json::parse(line, &error); }));
        dump_us.push_back(time_median(kUs, [&] { (void)json::dump(*doc); }));
    }
    out.set("json_parse_us", num(median(parse_us)));
    out.set("json_dump_us", num(median(dump_us)));
    out.set("frames", num(double(parse_us.size())));
    std::cout << json::dump(out) << "\n";
    return 0;
}
