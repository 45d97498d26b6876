// Client side of the remote-CAS wire protocol (serve/protocol.hpp
// cas_get/cas_put): lets one psaflowd shard read and publish artifacts in
// another shard's content-addressed store, making the disk tier a
// read-through cache over a shared cluster tier.
//
// Wiring (done by the psaflowd *tool*, not the serve library, so serve
// never depends on cluster): `--cas-upstream <endpoint>` constructs a
// RemoteCasClient and installs its hooks on the daemon session's store
// (CasStore::set_remote). The upstream can be a peer shard or a router —
// the router consistent-hashes cas keys onto shards, which gives every
// artifact a home shard.
//
// Failure policy: the remote tier is an accelerator, never a correctness
// dependency. Any transport or protocol failure is a miss (fetch) or a
// dropped publish (put); the local store and the recompute path remain
// authoritative. Calls open a fresh connection per operation — CAS
// traffic is bursty and rare relative to compiles, and a fresh connection
// keeps the client trivially thread-safe for concurrent workers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/cas/cas.hpp"
#include "support/net.hpp"

namespace psaflow::cluster {

class RemoteCasClient {
public:
    RemoteCasClient(net::Endpoint upstream, long long recv_timeout_ms = 5000)
        : upstream_(std::move(upstream)), recv_timeout_ms_(recv_timeout_ms) {}

    /// cas_get round trip. nullopt on miss *or* any failure.
    [[nodiscard]] std::optional<std::string> fetch(std::uint64_t key) const;

    /// cas_put round trip. False when the upstream did not store it.
    [[nodiscard]] bool publish(std::uint64_t key,
                               std::string_view payload) const;

    /// Hooks for CasStore::set_remote. They share ownership of this
    /// client, so the daemon can install them and forget.
    [[nodiscard]] static cas::RemoteFetch
    fetch_hook(std::shared_ptr<RemoteCasClient> client);
    [[nodiscard]] static cas::RemotePublish
    publish_hook(std::shared_ptr<RemoteCasClient> client);

    [[nodiscard]] const net::Endpoint& upstream() const { return upstream_; }

private:
    net::Endpoint upstream_;
    long long recv_timeout_ms_;
};

} // namespace psaflow::cluster
