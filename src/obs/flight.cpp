#include "obs/flight.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "support/string_util.hpp"

namespace psaflow::obs {

FlightRecorder::FlightRecorder(std::size_t capacity, std::uint64_t slo_us)
    : slo_us_(slo_us), ring_(std::max<std::size_t>(capacity, 1)) {}

void FlightRecorder::record(FlightRecord rec) {
    const bool breach = slo_us_ > 0 && rec.total_us > slo_us_;
    if (breach) rec.slo_breach = 1;
    {
        std::lock_guard lock(mu_);
        rec.seq = ++total_;
        if (breach) ++breaches_;
        ring_[(rec.seq - 1) % ring_.size()] = rec;
    }
    if (!breach) return;
    // Snapshot the digest into the structured log before it can be
    // overwritten by ring wrap-around.
    warn("flight", "slo breach",
         {{"trace_id", hex_u64(rec.trace_id)},
          {"app", rec.app},
          {"lane", rec.lane},
          {"shard", rec.shard},
          {"status", rec.status},
          {"queue_wait_us", std::to_string(rec.queue_wait_us)},
          {"exec_us", std::to_string(rec.exec_us)},
          {"total_us", std::to_string(rec.total_us)},
          {"slo_us", std::to_string(slo_us_)}});
}

std::vector<FlightRecord>
FlightRecorder::snapshot(std::size_t max_records) const {
    std::lock_guard lock(mu_);
    std::uint64_t held = std::min<std::uint64_t>(total_, ring_.size());
    if (max_records > 0) held = std::min<std::uint64_t>(held, max_records);
    std::vector<FlightRecord> records;
    records.reserve(held);
    for (std::uint64_t seq = total_ - held + 1; seq <= total_; ++seq)
        records.push_back(ring_[(seq - 1) % ring_.size()]);
    return records;
}

std::uint64_t FlightRecorder::total() const {
    std::lock_guard lock(mu_);
    return total_;
}

std::uint64_t FlightRecorder::breaches() const {
    std::lock_guard lock(mu_);
    return breaches_;
}

json::Value to_json(const FlightRecord& record) {
    json::Value v = json::Value::object();
    v.set("seq", json::Value::number(double(record.seq)));
    v.set("trace_id", json::Value::string(
                          record.trace_id == 0 ? std::string()
                                               : hex_u64(record.trace_id)));
    v.set("app", json::Value::string(record.app));
    v.set("lane", json::Value::string(record.lane));
    v.set("shard", json::Value::string(record.shard));
    v.set("status", json::Value::string(record.status));
    v.set("winner", json::Value::string(record.winner));
    v.set("queue_wait_us",
          json::Value::number(double(record.queue_wait_us)));
    v.set("exec_us", json::Value::number(double(record.exec_us)));
    v.set("total_us", json::Value::number(double(record.total_us)));
    v.set("retries", json::Value::number(double(record.retries)));
    v.set("cache_hits", json::Value::number(double(record.cache_hits)));
    v.set("slo_breach",
          json::Value::boolean(record.slo_breach != 0));
    return v;
}

} // namespace psaflow::obs
