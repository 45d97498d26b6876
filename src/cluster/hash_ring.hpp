// Consistent-hash ring for shard routing.
//
// Each shard contributes kVnodes points on a 64-bit ring (hashes of
// "name#i"); a key is owned by the first point clockwise from the key's
// position. The classic properties the router leans on:
//
//   * Stability: adding or removing one shard only moves the keys whose
//     nearest point belonged to it — roughly 1/N of the keyspace — so a
//     topology change invalidates a minimal slice of every other shard's
//     warm caches (test_cluster pins this down).
//   * Failover determinism: `pick_if` walks clockwise past points whose
//     shard fails the predicate, so every router instance, given the same
//     ring and the same health view, sends a key to the same fallback
//     shard — no coordination needed.
//
//   * Bounded loads: `pick_bounded` treats the owner as a preference, not
//     a mandate. It walks the same clockwise order but skips shards at
//     their load bound (Mirrokni, Thorup and Zadimoghaddam, "Consistent
//     Hashing with Bounded Loads", SODA 2018), so one hot key range
//     cannot queue a fleet's work on one shard.
//
// The ring itself is immutable-under-routing: the router builds it once
// from the static shard list and models drain/failure with the predicate,
// so a drained shard's keys come straight back to it on rejoin.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace psaflow::cluster {

class HashRing {
public:
    /// Points per shard. Enough that the largest/smallest shard load
    /// ratio stays near 1 for the shard counts psaflow clusters run
    /// (2..16); cheap enough that ring build time is irrelevant.
    static constexpr std::size_t kVnodes = 64;

    /// Add a shard (no-op if already present).
    void add(const std::string& shard);

    /// Remove a shard and all its points (no-op if absent).
    void remove(const std::string& shard);

    /// The owning shard for `key`, or nullopt on an empty ring.
    [[nodiscard]] std::optional<std::string> pick(std::uint64_t key) const;

    /// The first shard clockwise from `key` that satisfies `usable`
    /// (health/drain filter), or nullopt when none does. Distinct shards
    /// are tried in ring order, so the fallback for a failed owner is
    /// deterministic across routers.
    [[nodiscard]] std::optional<std::string>
    pick_if(std::uint64_t key,
            const std::function<bool(const std::string&)>& usable) const;

    /// A bounded-load pick: the shard to use and the key's owner among the
    /// usable shards. They differ when the owner was at its bound.
    struct BoundedPick {
        std::string shard;
        std::string owner;
        [[nodiscard]] bool spilled() const { return shard != owner; }
    };

    /// Consistent hashing with bounded loads. `loads` maps every usable
    /// shard to its in-flight count; shards missing from it are unusable.
    /// With T the summed load and n the usable count, the pick is the
    /// first shard clockwise from `key` whose load is below ⌈c·(T+1)/n⌉,
    /// so the owner keeps its key whenever it is under the bound. For
    /// c >= 1 some usable shard is always under it. nullopt when no shard
    /// is usable.
    [[nodiscard]] std::optional<BoundedPick>
    pick_bounded(std::uint64_t key,
                 const std::map<std::string, std::uint64_t>& loads,
                 double c) const;

    /// Up to `count` distinct shards clockwise from `key`, ring order —
    /// the owner followed by its failover candidates.
    [[nodiscard]] std::vector<std::string>
    owners(std::uint64_t key, std::size_t count) const;

    [[nodiscard]] bool empty() const { return points_.empty(); }
    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
    [[nodiscard]] std::vector<std::string> shards() const { return shards_; }

private:
    /// (ring position, shard) sorted by position; ties broken by shard
    /// name so the ring is identical regardless of insertion order.
    std::vector<std::pair<std::uint64_t, std::string>> points_;
    std::vector<std::string> shards_;
};

/// The ring-point hash: FNV-1a over the label, finished with the
/// splitmix64 mix so sequential vnode suffixes land far apart. Exposed for
/// tests (distribution/stability checks need to compute points directly).
[[nodiscard]] std::uint64_t ring_hash(const std::string& label);

} // namespace psaflow::cluster
