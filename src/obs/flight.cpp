#include "obs/flight.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "support/string_util.hpp"

namespace psaflow::obs {

FlightRecorder::FlightRecorder(std::size_t capacity, std::uint64_t slo_us)
    : slots_(std::max<std::size_t>(capacity, 1)), slo_us_(slo_us) {}

void FlightRecorder::set_slo_us(std::uint64_t us) {
    slo_us_.store(us, std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::slo_us() const {
    return slo_us_.load(std::memory_order_relaxed);
}

void FlightRecorder::record(FlightRecord rec) {
    const std::uint64_t claim =
        next_.fetch_add(1, std::memory_order_relaxed);
    rec.seq = claim + 1;

    const std::uint64_t slo = slo_us_.load(std::memory_order_relaxed);
    if (slo > 0 && rec.total_us > slo) {
        rec.slo_breach = 1;
        breaches_.fetch_add(1, std::memory_order_relaxed);
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
              {"slo_us", std::to_string(slo)}});
    }

    Slot& slot = slots_[claim % slots_.size()];
    std::uint64_t expected = slot.version.load(std::memory_order_relaxed);
    if ((expected & 1) != 0 ||
        !slot.version.compare_exchange_strong(expected, expected + 1,
                                              std::memory_order_acquire)) {
        // Another writer lapped the ring into this slot mid-write; drop
        // rather than block — the recorder must never stall a request.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &rec, sizeof rec);
    for (std::size_t w = 0; w < kWords; ++w)
        slot.words[w].store(words[w], std::memory_order_relaxed);
    slot.version.store(expected + 2, std::memory_order_release);
}

std::vector<FlightRecord>
FlightRecorder::snapshot(std::size_t max_records) const {
    std::vector<FlightRecord> records;
    records.reserve(slots_.size());
    for (const Slot& slot : slots_) {
        const std::uint64_t v1 =
            slot.version.load(std::memory_order_acquire);
        if (v1 == 0 || (v1 & 1) != 0) continue; // empty or mid-write
        std::uint64_t words[kWords];
        for (std::size_t w = 0; w < kWords; ++w)
            words[w] = slot.words[w].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.version.load(std::memory_order_relaxed) != v1)
            continue; // torn: a writer replaced the slot mid-copy
        FlightRecord rec;
        std::memcpy(&rec, words, sizeof rec);
        if (rec.seq == 0) continue;
        records.push_back(rec);
    }
    std::sort(records.begin(), records.end(),
              [](const FlightRecord& a, const FlightRecord& b) {
                  return a.seq < b.seq;
              });
    if (max_records > 0 && records.size() > max_records)
        records.erase(records.begin(),
                      records.end() -
                          static_cast<std::ptrdiff_t>(max_records));
    return records;
}

std::uint64_t FlightRecorder::total() const {
    return next_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::dropped() const {
    return dropped_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::breaches() const {
    return breaches_.load(std::memory_order_relaxed);
}

void FlightRecorder::clear() {
    for (Slot& slot : slots_) {
        slot.version.store(0);
        for (std::size_t w = 0; w < kWords; ++w) slot.words[w].store(0);
    }
    next_.store(0);
    dropped_.store(0);
    breaches_.store(0);
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
