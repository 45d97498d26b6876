#include "support/histogram.hpp"

#include <algorithm>
#include <bit>

namespace psaflow {

namespace {
int bucket_of(std::uint64_t value) {
    return value == 0 ? 0 : std::bit_width(value);
}

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}
} // namespace

void Histogram::record(std::uint64_t value) {
    buckets_[static_cast<std::size_t>(bucket_of(value))] += 1;
    count_ += 1;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
    for (int b = 0; b < kBuckets; ++b)
        buckets_[static_cast<std::size_t>(b)] =
            sat_add(buckets_[static_cast<std::size_t>(b)],
                    other.buckets_[static_cast<std::size_t>(b)]);
    count_ = sat_add(count_, other.count_);
    sum_ = sat_add(sum_, other.sum_);
    if (other.count_ > 0) {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
}

Histogram Histogram::from_parts(const Parts& parts) {
    Histogram h;
    h.count_ = parts.count;
    h.sum_ = parts.sum;
    h.min_ = parts.count == 0 ? UINT64_MAX : parts.min;
    h.max_ = parts.max;
    for (const auto& [floor, n] : parts.buckets) {
        // A bucket's floor identifies it: bucket_of(floor) inverts
        // bucket_floor (floor 0 → bucket 0, 2^(b-1) → bucket b). Tolerate
        // non-canonical floors by filing under the containing bucket.
        h.buckets_[static_cast<std::size_t>(bucket_of(floor))] =
            sat_add(h.buckets_[static_cast<std::size_t>(bucket_of(floor))],
                    n);
    }
    return h;
}

std::uint64_t Histogram::bucket_floor(int bucket) {
    if (bucket <= 0) return 0;
    return 1ull << (bucket - 1);
}

std::uint64_t Histogram::percentile(double p) const {
    if (count_ == 0) return 0;
    p = std::clamp(p, 0.0, 100.0);
    const auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += buckets_[static_cast<std::size_t>(b)];
        if (seen > rank) {
            // Upper bound of bucket b, clamped to the observed extremes so
            // p0/p100 report real samples.
            const std::uint64_t upper =
                b == 0 ? 0
                       : (b >= 64 ? UINT64_MAX : (1ull << b) - 1);
            return std::clamp(upper, min(), max_);
        }
    }
    return max_;
}

json::Value Histogram::to_json() const {
    json::Value out = json::Value::object();
    out.set("count", json::Value::number(double(count_)));
    out.set("sum", json::Value::number(double(sum_)));
    out.set("min", json::Value::number(double(min())));
    out.set("max", json::Value::number(double(max_)));
    out.set("mean", json::Value::number(mean()));
    out.set("p50", json::Value::number(double(percentile(50))));
    out.set("p90", json::Value::number(double(percentile(90))));
    out.set("p99", json::Value::number(double(percentile(99))));
    json::Value buckets = json::Value::array();
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = buckets_[static_cast<std::size_t>(b)];
        if (n == 0) continue;
        json::Value pair = json::Value::array();
        pair.push(json::Value::number(double(bucket_floor(b))));
        pair.push(json::Value::number(double(n)));
        buckets.push(std::move(pair));
    }
    out.set("buckets", std::move(buckets));
    return out;
}

Histogram Histogram::from_json(const json::Value* value) {
    const auto member = [value](const char* key) {
        const json::Value* v = value->find(key);
        return v == nullptr ? std::uint64_t{0}
                            : static_cast<std::uint64_t>(v->number_or(0.0));
    };
    Parts parts;
    if (value != nullptr && value->is_object()) {
        parts.count = member("count");
        parts.sum = member("sum");
        parts.min = member("min");
        parts.max = member("max");
        if (const json::Value* buckets = value->find("buckets");
            buckets != nullptr && buckets->is_array())
            for (const json::Value& pair : buckets->elements)
                if (pair.is_array() && pair.elements.size() == 2)
                    parts.buckets.emplace_back(
                        static_cast<std::uint64_t>(
                            pair.elements[0].number_or(0.0)),
                        static_cast<std::uint64_t>(
                            pair.elements[1].number_or(0.0)));
    }
    return from_parts(parts);
}

} // namespace psaflow
