#include "cluster/hash_ring.hpp"

#include <algorithm>
#include <cmath>

#include "support/cas/cas.hpp"

namespace psaflow::cluster {

std::uint64_t ring_hash(const std::string& label) {
    // FNV-1a, then the splitmix64 finaliser: FNV alone clusters labels
    // that share a long prefix ("shard-a#1", "shard-a#2"), and clustered
    // points defeat the whole load-spreading purpose of vnodes. The seed
    // is not FNV's offset basis (14695981039346656037, one digit longer);
    // it is kept because it fixes every ring position and so every
    // fleet's routing (HashRing.RingPositionsArePinned).
    std::uint64_t h =
        cas::fnv1a(label.data(), label.size(), 1469598103934665603ULL);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
}

void HashRing::add(const std::string& shard) {
    if (std::find(shards_.begin(), shards_.end(), shard) != shards_.end())
        return;
    shards_.push_back(shard);
    points_.reserve(points_.size() + kVnodes);
    for (std::size_t i = 0; i < kVnodes; ++i)
        points_.emplace_back(ring_hash(shard + '#' + std::to_string(i)),
                             shard);
    std::sort(points_.begin(), points_.end());
}

void HashRing::remove(const std::string& shard) {
    shards_.erase(std::remove(shards_.begin(), shards_.end(), shard),
                  shards_.end());
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [&](const auto& point) {
                                     return point.second == shard;
                                 }),
                  points_.end());
}

std::optional<std::string> HashRing::pick(std::uint64_t key) const {
    return pick_if(key, [](const std::string&) { return true; });
}

std::optional<std::string>
HashRing::pick_if(std::uint64_t key,
                  const std::function<bool(const std::string&)>& usable)
    const {
    if (points_.empty()) return std::nullopt;
    auto it = std::lower_bound(
        points_.begin(), points_.end(), key,
        [](const auto& point, std::uint64_t k) { return point.first < k; });
    // Walk at most one full revolution; vnode points repeat shards, so
    // count distinct shards seen to bound the predicate calls.
    std::vector<const std::string*> seen;
    for (std::size_t step = 0; step < points_.size(); ++step, ++it) {
        if (it == points_.end()) it = points_.begin();
        const std::string& shard = it->second;
        const bool visited =
            std::any_of(seen.begin(), seen.end(),
                        [&](const std::string* s) { return *s == shard; });
        if (visited) continue;
        if (usable(shard)) return shard;
        seen.push_back(&shard);
        if (seen.size() == shards_.size()) break;
    }
    return std::nullopt;
}

std::optional<HashRing::BoundedPick>
HashRing::pick_bounded(std::uint64_t key,
                       const std::map<std::string, std::uint64_t>& loads,
                       double c) const {
    const auto owner = pick_if(
        key, [&](const std::string& shard) { return loads.contains(shard); });
    if (!owner.has_value()) return std::nullopt;
    std::uint64_t total = 0;
    for (const auto& entry : loads) total += entry.second;
    const double bound =
        std::ceil(c * double(total + 1) / double(loads.size()));
    const auto shard = pick_if(key, [&](const std::string& candidate) {
        const auto it = loads.find(candidate);
        return it != loads.end() && double(it->second) < bound;
    });
    // Only c < 1 can leave every shard at its bound; the owner takes it.
    return BoundedPick{shard.value_or(*owner), *owner};
}

std::vector<std::string> HashRing::owners(std::uint64_t key,
                                          std::size_t count) const {
    std::vector<std::string> out;
    if (points_.empty() || count == 0) return out;
    auto it = std::lower_bound(
        points_.begin(), points_.end(), key,
        [](const auto& point, std::uint64_t k) { return point.first < k; });
    for (std::size_t step = 0; step < points_.size(); ++step, ++it) {
        if (it == points_.end()) it = points_.begin();
        const std::string& shard = it->second;
        if (std::find(out.begin(), out.end(), shard) == out.end())
            out.push_back(shard);
        if (out.size() == count || out.size() == shards_.size()) break;
    }
    return out;
}

} // namespace psaflow::cluster
