#include "cluster/remote_cas.hpp"

#include <memory>
#include <utility>

#include "obs/log.hpp"
#include "serve/protocol.hpp"
#include "serve/wire_trace.hpp"
#include "support/json.hpp"
#include "support/string_util.hpp"
#include "support/trace.hpp"

namespace psaflow::cluster {

namespace {

/// One request/response exchange on a fresh connection. nullopt on any
/// transport or parse failure (logged at debug — remote-CAS trouble is
/// routine during shard churn, not an operator alert).
std::optional<json::Value> round_trip(const net::Endpoint& upstream,
                                      long long recv_timeout_ms,
                                      const json::Value& request) {
    std::string error;
    std::string payload;
    if (net::round_trip(upstream, json::dump(request), recv_timeout_ms,
                        payload, &error) != net::FrameStatus::Ok) {
        if (!error.empty())
            obs::debug("cluster.cas", "upstream unreachable",
                       {{"upstream", upstream.describe()}, {"error", error}});
        return std::nullopt;
    }
    return json::parse(payload, nullptr);
}

} // namespace

std::optional<std::string> RemoteCasClient::fetch(std::uint64_t key) const {
    // The fetch runs inside the requesting flow's span tree; when the
    // enclosing request is distributed-traced (the daemon installed its
    // trace id on this thread), the upstream hop is traced too: the
    // upstream daemon parents its serve:cas_get span on this span and we
    // graft it back into the current registry, so the cross-process tree
    // shows the time spent inside the upstream store.
    trace::ScopedSpan span("cas:remote-get", "cluster");
    json::Value request = serve::make_request("cas_get");
    request.set("key", json::Value::string(hex_u64(key)));
    serve::WireTraceContext ctx;
    ctx.trace_id = trace::current_trace_id();
    ctx.parent_span = span.id();
    serve::set_trace_member(request, ctx);
    const std::uint64_t sent_at = trace::Registry::current().now_us();

    const auto response = round_trip(upstream_, recv_timeout_ms_, request);
    if (!response.has_value()) return std::nullopt;
    if (ctx.traced() && serve::response_trace_id(*response) == ctx.trace_id) {
        // Rebase the upstream's hop spans (based at its t=0) into this
        // fetch's window and record them beside the local span.
        std::vector<trace::Span> remote =
            serve::response_trace_spans(*response);
        trace::Registry& registry = trace::Registry::current();
        trace::Span window;
        window.start_us = sent_at;
        window.duration_us = registry.now_us() - sent_at;
        serve::nest_spans(remote, window);
        remote.pop_back(); // the window is span's own job, not a new span
        for (trace::Span& hop : remote) registry.add_span(std::move(hop));
    }
    const json::Value* ok = response->find("ok");
    const json::Value* found = response->find("found");
    if (ok == nullptr || !ok->bool_value || found == nullptr ||
        !found->bool_value)
        return std::nullopt;
    const json::Value* payload = response->find("payload");
    if (payload == nullptr || !payload->is_string()) return std::nullopt;
    return base64_decode(payload->string_value);
}

bool RemoteCasClient::publish(std::uint64_t key,
                              std::string_view payload) const {
    trace::ScopedSpan span("cas:remote-put", "cluster");
    json::Value request = serve::make_request("cas_put");
    request.set("key", json::Value::string(hex_u64(key)));
    request.set("payload",
                json::Value::string(base64_encode(payload)));

    const auto response = round_trip(upstream_, recv_timeout_ms_, request);
    if (!response.has_value()) return false;
    const json::Value* ok = response->find("ok");
    const json::Value* stored = response->find("stored");
    return ok != nullptr && ok->bool_value && stored != nullptr &&
           stored->bool_value;
}

cas::RemoteFetch
RemoteCasClient::fetch_hook(std::shared_ptr<RemoteCasClient> client) {
    return [client = std::move(client)](std::uint64_t key) {
        return client->fetch(key);
    };
}

cas::RemotePublish
RemoteCasClient::publish_hook(std::shared_ptr<RemoteCasClient> client) {
    return [client = std::move(client)](std::uint64_t key,
                                        std::string_view payload) {
        return client->publish(key, payload);
    };
}

} // namespace psaflow::cluster
