// Fixed-footprint latency histogram.
//
// Power-of-two buckets over unsigned 64-bit samples (microseconds in the
// serving layer): bucket b holds values whose bit width is b, i.e. the
// range [2^(b-1), 2^b), with bucket 0 reserved for the value 0. That keeps
// the whole histogram at 65 counters regardless of range — cheap enough to
// keep one per flow task in the daemon's metrics plane — while percentile
// estimates stay within a factor of two of the truth, which is what a
// "p99 is ~400ms" serving dashboard needs.
//
// Not internally synchronised: the daemon mutates histograms under its own
// stats mutex, and request-local histograms are single-threaded.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace psaflow {

class Histogram {
public:
    static constexpr int kBuckets = 65; ///< bit_width(uint64) + 1

    void record(std::uint64_t value);
    /// Pointwise sum of two histograms (counts, sum, min/max). Counts and
    /// the sum saturate at UINT64_MAX instead of wrapping — the cluster
    /// metrics fan-in merges histograms whose totals it does not control.
    void merge(const Histogram& other);

    /// Serialised histogram state, as it rides the wire in a shard's
    /// stats document ("buckets" as [floor, count] pairs plus the summary
    /// fields). from_parts rebuilds an equivalent Histogram on the other
    /// side, so a router can merge scraped shard histograms exactly:
    /// merged bucket counts are the arithmetic sums of the parts.
    struct Parts {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
    };
    [[nodiscard]] static Histogram from_parts(const Parts& parts);

    /// The stats-document form: {"count","sum","min","max","mean","p50",
    /// "p90","p99","buckets":[[floor,count],...]} with empty buckets
    /// elided — percentiles for humans, buckets so the document stays
    /// mergeable downstream.
    [[nodiscard]] json::Value to_json() const;
    /// Inverse of to_json (through Parts). A null, missing or malformed
    /// member reads as zeroes: an old shard without buckets degrades, it
    /// doesn't fail.
    [[nodiscard]] static Histogram from_json(const json::Value* value);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] std::uint64_t sum() const { return sum_; }
    /// Smallest / largest recorded sample (0 when empty).
    [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    [[nodiscard]] std::uint64_t max() const { return max_; }
    [[nodiscard]] double mean() const {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /// Upper bound of the bucket containing the p-th percentile (p in
    /// [0, 100]); 0 when empty. Exact for the extremes (clamped to the
    /// recorded min/max), otherwise right to within the bucket's 2x width.
    [[nodiscard]] std::uint64_t percentile(double p) const;

    [[nodiscard]] std::uint64_t bucket_count(int bucket) const {
        return buckets_.at(static_cast<std::size_t>(bucket));
    }
    /// Inclusive lower bound of a bucket's value range.
    [[nodiscard]] static std::uint64_t bucket_floor(int bucket);

private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = UINT64_MAX;
    std::uint64_t max_ = 0;
};

} // namespace psaflow
