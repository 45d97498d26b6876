#include "interp/focus.hpp"

#include <algorithm>
#include <unordered_set>

#include "meta/query.hpp"

namespace psaflow::interp {

int& BufferSlots::at(int id) {
    if (slots_.empty()) {
        base_ = id;
    } else if (id < base_) {
        slots_.insert(slots_.begin(), static_cast<std::size_t>(base_ - id),
                      -1);
        base_ = id;
    }
    const auto k = static_cast<std::size_t>(id - base_);
    if (k >= slots_.size()) slots_.resize(k + 1, -1);
    return slots_[k];
}

void FocusTracker::bind(int id, int elem_bytes, const std::string& name) {
    if (std::find(seen_.begin(), seen_.end(), id) != seen_.end())
        stats->args_alias = true;
    seen_.push_back(id);
    int& slot = slots_.at(id);
    if (slot >= 0) return;
    slot = static_cast<int>(stats->buffers.size());
    BufferAccess acc;
    acc.buffer_name = name;
    acc.elem_bytes = elem_bytes;
    stats->buffers.push_back(std::move(acc));
}

bool RegionFocus::enter(std::size_t k, FocusStats& stats,
                        const ExecutionProfile& prof, std::size_t frame) {
    drain();
    FocusTracker& tracker = trackers_[k];
    tracker.stats = &stats;
    open_.push_back(Open{&tracker, frame});
    return tracker.enter(prof);
}

void RegionFocus::bind(int id, int elem_bytes, const std::string& name) {
    open_.back().tracker->bind(id, elem_bytes, name);
    int& slot = live_slots_.at(id);
    if (slot >= 0) return;
    slot = static_cast<int>(live_.size());
    live_ids_.push_back(id);
    live_.emplace_back();
}

void RegionFocus::exit(const ExecutionProfile& prof) {
    drain();
    FocusTracker* tracker = open_.back().tracker;
    open_.pop_back();
    tracker->exit(prof);
}

void RegionFocus::drain() {
    for (std::size_t slot = 0; slot < live_.size(); ++slot) {
        BufferAccess& acc = live_[slot];
        if (acc.reads + acc.writes == 0) continue;
        for (const Open& o : open_)
            if (o.tracker->depth == 1) o.tracker->merge(live_ids_[slot], acc);
        acc = BufferAccess{};
    }
}

std::vector<RegionSpec> focus_regions(const ast::Function& function,
                                      const sema::TypeInfo& types) {
    std::unordered_set<std::string> arrays;
    for (const auto& v : types.variables(function))
        if (v.type.is_pointer) arrays.insert(v.name);
    std::vector<RegionSpec> out;
    for (const ast::For* loop : meta::outermost_for_loops(function)) {
        RegionSpec spec;
        spec.loop = loop;
        for (std::string& name : meta::free_variables(*loop))
            if (arrays.count(name) != 0) spec.buffers.push_back(std::move(name));
        out.push_back(std::move(spec));
    }
    return out;
}

} // namespace psaflow::interp
