#include "flow/manifest.hpp"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>

#include "apps/apps.hpp"
#include "flow/learned_strategy.hpp"
#include "flow/strategy.hpp"
#include "flow/task_registry.hpp"
#include "support/error.hpp"

namespace psaflow::flow {

namespace {

// Diagnostics carry a JSON-path location ("$.branch.paths[2].tasks[0]") so
// a manifest author lands on the offending node, not just the file.
[[noreturn]] void fail(const std::string& loc, const std::string& msg) {
    throw Error("flow manifest: " + loc + ": " + msg);
}

std::string at(const std::string& loc, const std::string& key) {
    return loc + "." + key;
}

std::string at(const std::string& loc, std::size_t index) {
    return loc + "[" + std::to_string(index) + "]";
}

void reject_unknown_fields(const json::Value& obj, const std::string& loc,
                           std::initializer_list<const char*> known) {
    for (const auto& [key, value] : obj.members) {
        (void)value;
        const bool ok = std::any_of(
            known.begin(), known.end(),
            [&key](const char* k) { return key == k; });
        if (!ok) fail(loc, "unknown field \"" + key + "\"");
    }
}

[[nodiscard]] bool integral(const json::Value& v) {
    return v.is_number() &&
           v.number_value ==
               static_cast<double>(static_cast<long long>(v.number_value));
}

std::vector<TaskPtr> parse_tasks(const json::Value& list,
                                 const std::string& loc) {
    if (!list.is_array()) fail(loc, "must be an array of task ids");
    std::vector<TaskPtr> tasks;
    tasks.reserve(list.elements.size());
    for (std::size_t i = 0; i < list.elements.size(); ++i) {
        const json::Value& id = list.elements[i];
        if (!id.is_string()) fail(at(loc, i), "task id must be a string");
        if (!TaskRegistry::global().contains(id.string_value))
            fail(at(loc, i),
                 "unknown task id '" + id.string_value + "'");
        tasks.push_back(TaskRegistry::global().make(id.string_value));
    }
    return tasks;
}

std::shared_ptr<PsaStrategy>
parse_strategy(const json::Value& spec, const std::string& loc,
               const std::string& branch_name,
               const std::vector<std::string>& path_names) {
    std::string kind;
    const json::Value* args = nullptr;
    if (spec.is_string()) {
        kind = spec.string_value;
    } else if (spec.is_object()) {
        const json::Value* name = spec.find("name");
        if (name == nullptr || !name->is_string())
            fail(at(loc, "name"),
                 "strategy object needs a string \"name\"");
        kind = name->string_value;
        args = &spec;
    } else {
        fail(loc, "strategy must be a string or an object with \"name\"");
    }

    if (kind == "informed") {
        if (args != nullptr) reject_unknown_fields(*args, loc, {"name"});
        return informed_strategy();
    }
    if (kind == "select-all") {
        if (args != nullptr) reject_unknown_fields(*args, loc, {"name"});
        return select_all();
    }
    if (kind == "fixed-path") {
        if (args != nullptr)
            reject_unknown_fields(*args, loc, {"name", "paths"});
        const json::Value* list =
            args != nullptr ? args->find("paths") : nullptr;
        if (list == nullptr || !list->is_array() || list->elements.empty())
            fail(at(loc, "paths"), "fixed-path needs a \"paths\" array "
                                   "naming at least one path");
        std::vector<std::string> names;
        for (std::size_t i = 0; i < list->elements.size(); ++i) {
            const json::Value& name = list->elements[i];
            const std::string nloc = at(at(loc, "paths"), i);
            if (!name.is_string()) fail(nloc, "path name must be a string");
            if (std::find(path_names.begin(), path_names.end(),
                          name.string_value) == path_names.end())
                fail(nloc, "fixed-path names unknown path '" +
                               name.string_value + "' of branch '" +
                               branch_name + "'");
            names.push_back(name.string_value);
        }
        return fixed_path_strategy(std::move(names));
    }
    if (kind == "learned") {
        if (args != nullptr)
            reject_unknown_fields(*args, loc, {"name", "k", "train_apps"});
        int k = 3;
        std::vector<const apps::Application*> train =
            apps::all_applications();
        if (args != nullptr) {
            if (const json::Value* kv = args->find("k")) {
                if (!integral(*kv) || kv->number_value < 1.0)
                    fail(at(loc, "k"), "must be an integer >= 1");
                k = static_cast<int>(kv->number_value);
            }
            if (const json::Value* list = args->find("train_apps")) {
                if (!list->is_array() || list->elements.empty())
                    fail(at(loc, "train_apps"),
                         "must be a non-empty array of application names");
                train.clear();
                for (std::size_t i = 0; i < list->elements.size(); ++i) {
                    const json::Value& name = list->elements[i];
                    const std::string nloc =
                        at(at(loc, "train_apps"), i);
                    if (!name.is_string())
                        fail(nloc, "application name must be a string");
                    try {
                        train.push_back(
                            &apps::application_by_name(name.string_value));
                    } catch (const Error&) {
                        fail(nloc, "unknown application '" +
                                       name.string_value + "'");
                    }
                }
            }
        }
        // Deterministic but expensive: one uninformed flow per training
        // app. Opting into "learned" in a manifest pays for the training.
        return std::make_shared<LearnedStrategy>(train_from_oracle(train),
                                                 k);
    }
    fail(loc, "unknown strategy '" + kind +
                  "' (known: fixed-path, informed, learned, select-all)");
}

/// Named branch definitions ("branches") plus the reference-resolution
/// stack that turns a circular reference into a located diagnostic instead
/// of infinite recursion.
struct BranchTable {
    const json::Value* defs = nullptr;
    std::vector<std::string> active;
};

std::shared_ptr<BranchPoint> parse_branch(const json::Value& spec,
                                          const std::string& loc,
                                          BranchTable& table);

std::shared_ptr<BranchPoint> parse_branch_spec(const json::Value& spec,
                                               const std::string& loc,
                                               BranchTable& table) {
    if (!spec.is_string()) return parse_branch(spec, loc, table);
    const std::string& ref = spec.string_value;
    if (std::find(table.active.begin(), table.active.end(), ref) !=
        table.active.end())
        fail(loc, "circular branch reference '" + ref + "'");
    const json::Value* def =
        table.defs != nullptr ? table.defs->find(ref) : nullptr;
    if (def == nullptr)
        fail(loc, "unknown branch reference '" + ref +
                      "' (no such entry in \"branches\")");
    table.active.push_back(ref);
    auto branch = parse_branch(*def, at("$.branches", ref), table);
    table.active.pop_back();
    return branch;
}

std::shared_ptr<BranchPoint> parse_branch(const json::Value& spec,
                                          const std::string& loc,
                                          BranchTable& table) {
    if (!spec.is_object())
        fail(loc, "branch must be an object (or a \"branches\" reference)");
    reject_unknown_fields(spec, loc, {"name", "strategy", "paths"});

    auto branch = std::make_shared<BranchPoint>();
    const json::Value* name = spec.find("name");
    if (name == nullptr) fail(loc, "missing required \"name\"");
    if (!name->is_string() || name->string_value.empty())
        fail(at(loc, "name"), "must be a non-empty string");
    branch->name = name->string_value;

    const json::Value* paths = spec.find("paths");
    if (paths == nullptr || !paths->is_array() || paths->elements.empty())
        fail(at(loc, "paths"), "a branch needs at least one path");
    std::vector<std::string> path_names;
    for (std::size_t i = 0; i < paths->elements.size(); ++i) {
        const json::Value& entry = paths->elements[i];
        const std::string ploc = at(at(loc, "paths"), i);
        if (!entry.is_object()) fail(ploc, "path must be an object");
        reject_unknown_fields(entry, ploc, {"name", "tasks", "branch"});

        FlowPath path;
        const json::Value* pname = entry.find("name");
        if (pname == nullptr) fail(ploc, "missing required \"name\"");
        if (!pname->is_string() || pname->string_value.empty())
            fail(at(ploc, "name"), "must be a non-empty string");
        path.name = pname->string_value;
        if (std::find(path_names.begin(), path_names.end(), path.name) !=
            path_names.end())
            fail(ploc, "duplicate path name '" + path.name + "'");
        path_names.push_back(path.name);

        if (const json::Value* tasks = entry.find("tasks"))
            path.tasks = parse_tasks(*tasks, at(ploc, "tasks"));
        if (const json::Value* nested = entry.find("branch"))
            path.next =
                parse_branch_spec(*nested, at(ploc, "branch"), table);
        branch->paths.push_back(std::move(path));
    }

    const json::Value* strategy = spec.find("strategy");
    branch->strategy =
        strategy != nullptr
            ? parse_strategy(*strategy, at(loc, "strategy"), branch->name,
                             path_names)
            : select_all();
    return branch;
}

json::Value export_strategy(const PsaStrategy& strategy) {
    if (const auto* fixed =
            dynamic_cast<const FixedPathStrategy*>(&strategy)) {
        json::Value spec = json::Value::object();
        spec.set("name", json::Value::string("fixed-path"));
        json::Value paths = json::Value::array();
        for (const std::string& name : fixed->paths())
            paths.push(json::Value::string(name));
        spec.set("paths", std::move(paths));
        return spec;
    }
    // Strategies without parameters export by name; the informed strategy's
    // cost-feedback exclusions are engine-internal state, never part of a
    // user-built flow, so the plain spelling is always faithful here.
    const std::string name = strategy.name();
    if (name == "select-all") return json::Value::string("select-all");
    if (name == "informed (Fig. 3)") return json::Value::string("informed");
    throw Error("flow::to_manifest: strategy '" + name +
                "' has no manifest spelling");
}

json::Value export_branch(const BranchPoint& branch) {
    json::Value out = json::Value::object();
    out.set("name", json::Value::string(branch.name));
    ensure(branch.strategy != nullptr,
           "flow::to_manifest: branch '" + branch.name +
               "' has no strategy");
    out.set("strategy", export_strategy(*branch.strategy));
    json::Value paths = json::Value::array();
    for (const FlowPath& path : branch.paths) {
        json::Value entry = json::Value::object();
        entry.set("name", json::Value::string(path.name));
        json::Value tasks = json::Value::array();
        for (const TaskPtr& task : path.tasks)
            tasks.push(json::Value::string(task->id()));
        entry.set("tasks", std::move(tasks));
        if (path.next != nullptr)
            entry.set("branch", export_branch(*path.next));
        paths.push(std::move(entry));
    }
    out.set("paths", std::move(paths));
    return out;
}

} // namespace

ManifestFlow from_manifest(const json::Value& doc) {
    if (!doc.is_object()) fail("$", "manifest must be a JSON object");
    reject_unknown_fields(doc, "$",
                          {"psaflow_manifest", "name", "prologue",
                           "branches", "branch", "budget", "threshold_x",
                           "max_feedback_iterations"});

    const json::Value* version = doc.find("psaflow_manifest");
    if (version == nullptr)
        fail("$", "missing required \"psaflow_manifest\" version field");
    if (!version->is_number() ||
        version->number_value != static_cast<double>(kManifestVersion))
        fail("$.psaflow_manifest",
             "unsupported manifest version " + json::dump(*version) +
                 " (this build supports " +
                 std::to_string(kManifestVersion) + ")");

    ManifestFlow out;
    if (const json::Value* name = doc.find("name")) {
        if (!name->is_string()) fail("$.name", "must be a string");
        out.name = name->string_value;
    }
    if (const json::Value* prologue = doc.find("prologue"))
        out.flow.prologue = parse_tasks(*prologue, "$.prologue");

    BranchTable table;
    if (const json::Value* defs = doc.find("branches")) {
        if (!defs->is_object())
            fail("$.branches",
                 "must be an object of named branch definitions");
        std::set<std::string> seen;
        for (const auto& [key, value] : defs->members) {
            (void)value;
            if (!seen.insert(key).second)
                fail("$.branches", "duplicate branch name '" + key + "'");
        }
        table.defs = defs;
    }
    if (const json::Value* branch = doc.find("branch"))
        out.flow.branch = parse_branch_spec(*branch, "$.branch", table);

    if (const json::Value* budget = doc.find("budget")) {
        if (!budget->is_object())
            fail("$.budget", "must be an object with \"max_run_cost\"");
        reject_unknown_fields(*budget, "$.budget", {"max_run_cost"});
        const json::Value* cost = budget->find("max_run_cost");
        if (cost == nullptr || !cost->is_number() ||
            cost->number_value < 0.0)
            fail("$.budget.max_run_cost",
                 "must be a non-negative number");
        out.max_run_cost = cost->number_value;
    }
    if (const json::Value* x = doc.find("threshold_x")) {
        if (!x->is_number() || !(x->number_value > 0.0))
            fail("$.threshold_x", "must be a positive number");
        out.threshold_x = x->number_value;
    }
    if (const json::Value* iters = doc.find("max_feedback_iterations")) {
        if (!integral(*iters) || iters->number_value < 0.0)
            fail("$.max_feedback_iterations",
                 "must be a non-negative integer");
        out.max_feedback_iterations = static_cast<int>(iters->number_value);
    }
    out.canonical = json::dump(doc);
    return out;
}

ManifestFlow parse_manifest_text(std::string_view text) {
    std::string error;
    const auto doc = json::parse(text, &error);
    if (!doc.has_value()) throw Error("flow manifest: " + error);
    return from_manifest(*doc);
}

ManifestFlow read_manifest_file(const std::string& path) {
    std::ifstream file(path);
    if (!file) throw Error("flow manifest: cannot read '" + path + "'");
    std::stringstream buffer;
    buffer << file.rdbuf();
    try {
        return parse_manifest_text(buffer.str());
    } catch (const Error& e) {
        throw Error(std::string(e.what()) + " [" + path + "]");
    }
}

json::Value to_manifest(const DesignFlow& flow, const std::string& name) {
    json::Value doc = json::Value::object();
    doc.set("psaflow_manifest",
            json::Value::number(static_cast<double>(kManifestVersion)));
    if (!name.empty()) doc.set("name", json::Value::string(name));
    json::Value prologue = json::Value::array();
    for (const TaskPtr& task : flow.prologue)
        prologue.push(json::Value::string(task->id()));
    doc.set("prologue", std::move(prologue));
    if (flow.branch != nullptr)
        doc.set("branch", export_branch(*flow.branch));
    return doc;
}

} // namespace psaflow::flow
