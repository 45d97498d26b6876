#include "serve/request.hpp"

#include <filesystem>

#include "apps/apps.hpp"
#include "flow/manifest.hpp"
#include "support/cas/cas.hpp"
#include "support/error.hpp"

namespace psaflow::serve {

namespace {

[[nodiscard]] bool valid_mode(const std::string& mode) {
    return mode == "informed" || mode == "uninformed";
}

} // namespace

const char* to_string(Priority priority) {
    return priority == Priority::Batch ? "batch" : "interactive";
}

const char* to_string(ErrorKind kind) {
    switch (kind) {
    case ErrorKind::None: return "none";
    case ErrorKind::BadRequest: return "bad_request";
    case ErrorKind::Overloaded: return "overloaded";
    case ErrorKind::DeadlineExceeded: return "deadline_exceeded";
    case ErrorKind::Internal: return "internal";
    }
    return "internal";
}

ErrorKind error_kind_from_string(const std::string& name) {
    if (name == "none") return ErrorKind::None;
    if (name == "bad_request") return ErrorKind::BadRequest;
    if (name == "overloaded") return ErrorKind::Overloaded;
    if (name == "deadline_exceeded") return ErrorKind::DeadlineExceeded;
    return ErrorKind::Internal;
}

std::optional<std::string> parse_compile_request(const json::Value& entry,
                                                 CompileRequest& out) {
    if (entry.kind != json::Value::Kind::Object)
        return "request is not an object";
    if (const json::Value* v = entry.find("app")) out.app = v->string_or("");
    if (out.app.empty()) return "request has no \"app\"";
    if (const json::Value* v = entry.find("mode"))
        out.mode = v->string_or(out.mode);
    if (!valid_mode(out.mode))
        return "mode must be 'informed' or 'uninformed'";
    if (const json::Value* v = entry.find("budget"))
        out.budget = v->number_or(out.budget);
    if (const json::Value* v = entry.find("threshold_x"))
        out.threshold_x = v->number_or(out.threshold_x);
    if (const json::Value* v = entry.find("out"))
        out.out_dir = v->string_or(out.out_dir);
    if (const json::Value* v = entry.find("deadline_ms"))
        out.deadline_ms =
            static_cast<long long>(v->number_or(double(out.deadline_ms)));
    if (out.deadline_ms < 0) return "deadline_ms must be >= 0";
    if (const json::Value* v = entry.find("priority")) {
        const std::string name = v->string_or("");
        if (name == "interactive") out.priority = Priority::Interactive;
        else if (name == "batch") out.priority = Priority::Batch;
        else return "priority must be 'interactive' or 'batch'";
    }
    if (const json::Value* v = entry.find("flow")) {
        if (!v->is_object()) return "flow must be an inline manifest object";
        try {
            out.flow = std::make_shared<const flow::ManifestFlow>(
                flow::from_manifest(*v));
        } catch (const Error& e) {
            return std::string(e.what());
        }
    }
    return std::nullopt;
}

std::uint64_t affinity_digest(const CompileRequest& req) {
    cas::Hasher hasher;
    hasher.str("request-affinity");
    // Hash the module *content*, not the request's name for it: every warm
    // artifact (interp profiles, design cache entries) keys off the source
    // text, so two names for identical sources still co-locate.
    try {
        hasher.str(apps::application_by_name(req.app).source);
    } catch (const Error&) {
        hasher.str(req.app); // unknown app: still deterministic routing
    }
    hasher.str(req.flow != nullptr ? std::string_view(req.flow->canonical)
                                   : std::string_view());
    return hasher.digest();
}

std::optional<std::string> parse_manifest(const json::Value& doc,
                                          ManifestDefaults& defaults,
                                          std::vector<CompileRequest>& requests) {
    const json::Value* list = nullptr;
    if (doc.kind == json::Value::Kind::Array) {
        list = &doc;
    } else if (doc.kind == json::Value::Kind::Object) {
        if (const json::Value* v = doc.find("jobs"))
            defaults.jobs =
                static_cast<long long>(v->number_or(double(defaults.jobs)));
        if (const json::Value* v = doc.find("cache_dir"))
            defaults.cache_dir = v->string_or(defaults.cache_dir);
        if (const json::Value* v = doc.find("out"))
            defaults.out_root = v->string_or(defaults.out_root);
        list = doc.find("requests");
    }
    if (list == nullptr || list->kind != json::Value::Kind::Array)
        return "expected a top-level array or an object with a \"requests\" "
               "array";

    for (std::size_t i = 0; i < list->elements.size(); ++i) {
        // The operator owns the batch file, so an entry may name its flow
        // by file path; it is read and lowered here, once.
        const json::Value* entry = &list->elements[i];
        json::Value resolved;
        std::shared_ptr<const flow::ManifestFlow> file_flow;
        if (const json::Value* flow = entry->find("flow");
            flow != nullptr && flow->is_string()) {
            try {
                file_flow = std::make_shared<const flow::ManifestFlow>(
                    flow::read_manifest_file(flow->string_value));
            } catch (const Error& e) {
                return "request " + std::to_string(i) + ": " + e.what();
            }
            resolved = json::Value::object();
            for (const auto& [key, value] : entry->members)
                if (key != "flow") resolved.set(key, value);
            entry = &resolved;
        }
        CompileRequest req;
        if (auto error = parse_compile_request(*entry, req))
            return "request " + std::to_string(i) + ": " + *error;
        if (file_flow != nullptr) req.flow = std::move(file_flow);
        if (req.out_dir.empty())
            req.out_dir = (std::filesystem::path(defaults.out_root) /
                           (req.app + "-" + std::to_string(i)))
                              .string();
        requests.push_back(std::move(req));
    }
    return std::nullopt;
}

} // namespace psaflow::serve
