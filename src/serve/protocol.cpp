#include "serve/protocol.hpp"

#include "obs/log.hpp"
#include "support/string_util.hpp"

namespace psaflow::serve {

std::optional<std::string> parse_wire_request(const json::Value& doc,
                                              WireRequest& out) {
    if (doc.kind != json::Value::Kind::Object)
        return "request is not an object";
    if (const json::Value* v = doc.find("schema_version")) {
        if (!v->is_number() ||
            v->number_value != double(kSchemaVersion))
            return "unsupported schema_version " + json::dump(*v) +
                   " (supported: " + std::to_string(kSchemaVersion) + ")";
    }
    std::string type = "compile";
    if (const json::Value* v = doc.find("type")) type = v->string_or("");
    out.trace = trace_member(doc);

    if (type == "compile") {
        out.type = RequestType::Compile;
        return parse_compile_request(doc, out.compile);
    }
    // Types without members of their own.
    for (const auto& [name, kind] :
         {std::pair{"stats", RequestType::Stats},
          std::pair{"metrics", RequestType::Metrics},
          std::pair{"ping", RequestType::Ping},
          std::pair{"cluster_stats", RequestType::ClusterStats},
          std::pair{"cluster_metrics", RequestType::ClusterMetrics},
          std::pair{"drain", RequestType::Drain}}) {
        if (type == name) {
            out.type = kind;
            return std::nullopt;
        }
    }
    if (type == "logs") {
        out.type = RequestType::Logs;
        if (const json::Value* v = doc.find("max"))
            out.logs_max = static_cast<long long>(v->number_or(100.0));
        if (const json::Value* v = doc.find("min_level"))
            out.logs_min_level = v->string_or("");
        if (out.logs_max < 0) return "logs: max must be >= 0";
        return std::nullopt;
    }
    if (type == "cas_get" || type == "cas_put") {
        out.type = type == "cas_get" ? RequestType::CasGet
                                     : RequestType::CasPut;
        const json::Value* key = doc.find("key");
        if (key == nullptr || !key->is_string())
            return type + ": missing string \"key\"";
        const auto parsed_key = parse_hex_u64(key->string_value);
        if (!parsed_key.has_value())
            return type + ": key must be 16 hex digits";
        out.cas_key = *parsed_key;
        if (out.type == RequestType::CasPut) {
            const json::Value* payload = doc.find("payload");
            if (payload == nullptr || !payload->is_string())
                return "cas_put: missing string \"payload\"";
            auto decoded = base64_decode(payload->string_value);
            if (!decoded.has_value())
                return "cas_put: payload is not valid base64";
            out.cas_payload = std::move(*decoded);
        }
        return std::nullopt;
    }
    if (type == "flight") {
        out.type = RequestType::Flight;
        if (const json::Value* v = doc.find("max"))
            out.flight_max = static_cast<long long>(v->number_or(0.0));
        if (out.flight_max < 0) return "flight: max must be >= 0";
        return std::nullopt;
    }
    if (type == "sleep") {
        out.type = RequestType::Sleep;
        if (const json::Value* v = doc.find("ms"))
            out.sleep_ms = static_cast<long long>(v->number_or(0.0));
        if (const json::Value* v = doc.find("deadline_ms"))
            out.deadline_ms = static_cast<long long>(v->number_or(0.0));
        if (out.sleep_ms < 0 || out.deadline_ms < 0)
            return "sleep: ms and deadline_ms must be >= 0";
        return std::nullopt;
    }
    return "unknown request type '" + type + "'";
}

json::Value make_request(const std::string& type) {
    json::Value request = json::Value::object();
    request.set("schema_version", json::Value::number(double(kSchemaVersion)));
    request.set("type", json::Value::string(type));
    return request;
}

json::Value make_ok_response(const std::string& type) {
    json::Value response = json::Value::object();
    response.set("ok", json::Value::boolean(true));
    response.set("schema_version",
                 json::Value::number(double(kSchemaVersion)));
    response.set("type", json::Value::string(type));
    return response;
}

json::Value make_error_response(ErrorKind kind, const std::string& message,
                                long long retry_after_ms) {
    json::Value response = json::Value::object();
    response.set("ok", json::Value::boolean(false));
    response.set("schema_version",
                 json::Value::number(double(kSchemaVersion)));
    response.set("error_kind", json::Value::string(to_string(kind)));
    response.set("error", json::Value::string(message));
    if (retry_after_ms > 0)
        response.set("retry_after_ms",
                     json::Value::number(double(retry_after_ms)));
    return response;
}

json::Value make_compile_response(const CompileRequest& req,
                                  const CompileOutcome& outcome) {
    json::Value response = make_ok_response("compile");
    response.set("app", json::Value::string(req.app));
    response.set("mode", json::Value::string(req.mode));
    response.set("design_count",
                 json::Value::number(double(outcome.design_count)));
    response.set("decision_count",
                 json::Value::number(double(outcome.decisions.size())));
    response.set("best_speedup", json::Value::number(outcome.best_speedup));
    response.set("reference_seconds",
                 json::Value::number(outcome.reference_seconds));
    response.set("summary_path", json::Value::string(outcome.summary_path));
    response.set("wall_us", json::Value::number(double(outcome.wall_us)));

    json::Value designs = json::Value::array();
    for (const DesignRow& row : outcome.designs) {
        json::Value design = json::Value::object();
        design.set("name", json::Value::string(row.name));
        design.set("target", json::Value::string(row.target));
        design.set("device", json::Value::string(row.device));
        design.set("synthesizable", json::Value::boolean(row.synthesizable));
        design.set("hotspot_seconds",
                   json::Value::number(row.hotspot_seconds));
        design.set("speedup", json::Value::number(row.speedup));
        design.set("loc_delta", json::Value::number(row.loc_delta));
        design.set("file", json::Value::string(row.filename));
        designs.push(std::move(design));
    }
    response.set("designs", std::move(designs));

    json::Value counters = json::Value::object();
    for (const auto& [name, value] : outcome.counters)
        counters.set(name, json::Value::number(double(value)));
    response.set("counters", std::move(counters));
    return response;
}

json::Value make_cas_get_response(const std::optional<std::string>& payload) {
    json::Value response = make_ok_response("cas_get");
    response.set("found", json::Value::boolean(payload.has_value()));
    if (payload.has_value())
        response.set("payload", json::Value::string(base64_encode(*payload)));
    return response;
}

json::Value make_flight_response(const obs::FlightRecorder& recorder,
                                 long long max_records) {
    json::Value response = make_ok_response("flight");
    response.set("capacity",
                 json::Value::number(double(recorder.capacity())));
    response.set("total", json::Value::number(double(recorder.total())));
    response.set("slo_breaches",
                 json::Value::number(double(recorder.breaches())));
    response.set("slo_us", json::Value::number(double(recorder.slo_us())));
    json::Value records = json::Value::array();
    const auto snapshot = recorder.snapshot(
        max_records <= 0 ? 0 : static_cast<std::size_t>(max_records));
    for (const obs::FlightRecord& record : snapshot)
        records.push(obs::to_json(record));
    response.set("records", std::move(records));
    return response;
}

json::Value make_logs_response(long long max_records,
                               const std::string& min_level) {
    obs::LogLevel level = obs::LogLevel::Trace;
    if (!min_level.empty())
        if (auto parsed = obs::parse_log_level(min_level)) level = *parsed;

    const obs::Logger& logger = obs::Logger::global();
    const auto records = logger.recent(
        max_records < 0 ? 0 : static_cast<std::size_t>(max_records), level);

    json::Value response = make_ok_response("logs");
    response.set("total", json::Value::number(double(logger.total())));
    response.set("dropped", json::Value::number(double(logger.dropped())));
    json::Value out = json::Value::array();
    for (const obs::LogRecord& record : records) {
        json::Value entry = json::Value::object();
        entry.set("seq", json::Value::number(double(record.seq)));
        entry.set("wall_ms", json::Value::number(double(record.wall_ms)));
        entry.set("level",
                  json::Value::string(obs::to_string(record.level)));
        entry.set("component", json::Value::string(record.component));
        entry.set("message", json::Value::string(record.message));
        if (!record.fields.empty()) {
            json::Value fields = json::Value::object();
            for (const auto& [key, value] : record.fields)
                fields.set(key, json::Value::string(value));
            entry.set("fields", std::move(fields));
        }
        entry.set("line", json::Value::string(record.to_line()));
        out.push(std::move(entry));
    }
    response.set("records", std::move(out));
    return response;
}

json::Value make_cas_put_response(bool stored) {
    json::Value response = make_ok_response("cas_put");
    response.set("stored", json::Value::boolean(stored));
    return response;
}

json::Value make_pong_response() { return make_ok_response("pong"); }

json::Value make_metrics_response(const std::string& type, std::string body) {
    json::Value response = make_ok_response(type);
    response.set("content_type",
                 json::Value::string("text/plain; version=0.0.4"));
    response.set("body", json::Value::string(std::move(body)));
    return response;
}

double hit_rate(const CounterMap& counters, const char* hits,
                const char* misses) {
    const auto count = [&counters](const char* name) {
        const auto it = counters.find(name);
        return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t total = count(hits) + count(misses);
    return total == 0 ? 0.0
                      : static_cast<double>(count(hits)) /
                            static_cast<double>(total);
}

json::Value cache_hit_rates(const CounterMap& counters) {
    json::Value cache = json::Value::object();
    cache.set("cas_hit_rate", json::Value::number(hit_rate(
                                  counters, "cas.hits", "cas.misses")));
    cache.set("profile_cache_hit_rate",
              json::Value::number(hit_rate(counters, "profile_cache.hits",
                                           "profile_cache.misses")));
    cache.set("remote_cas_hit_rate",
              json::Value::number(hit_rate(counters, "cas.remote_hits",
                                           "cas.remote_misses")));
    return cache;
}

std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

std::optional<ResponseView> parse_response(const json::Value& doc) {
    if (doc.kind != json::Value::Kind::Object) return std::nullopt;
    const json::Value* ok = doc.find("ok");
    if (ok == nullptr || ok->kind != json::Value::Kind::Bool)
        return std::nullopt;

    ResponseView view;
    view.ok = ok->bool_value;
    if (view.ok) {
        view.error_kind = ErrorKind::None;
        return view;
    }
    if (const json::Value* v = doc.find("error_kind"))
        view.error_kind = error_kind_from_string(v->string_or("internal"));
    if (const json::Value* v = doc.find("error"))
        view.error = v->string_or("");
    if (const json::Value* v = doc.find("retry_after_ms"))
        view.retry_after_ms = static_cast<long long>(v->number_or(0.0));
    return view;
}

} // namespace psaflow::serve
