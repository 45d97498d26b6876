// Focus bookkeeping shared by both interpreter engines.
//
// A focus is the profiling focus function, or one focus region: an
// outermost for-loop profiled as if it had been extracted into a kernel
// function of its own (InterpOptions::region_focus). The two engines keep
// their own activation structure (call frames, loop statements, RegionEnter
// and RegionExit instructions) and drive a FocusTracker for the focus
// function and a RegionFocus for the regions, so the numbers a focus
// accumulates come out of one piece of code.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ast/nodes.hpp"
#include "interp/profile.hpp"
#include "sema/type_check.hpp"

namespace psaflow::interp {

/// A slot number per buffer id. Buffer ids are handed out consecutively,
/// so the ids one run deals with span a small range and a lookup is one
/// indexed load.
class BufferSlots {
public:
    /// The slot of buffer `id`, or -1.
    [[nodiscard]] int find(int id) const {
        // Ids below base_ wrap around to a huge offset and miss too.
        const auto k = static_cast<std::size_t>(
            static_cast<unsigned>(id) - static_cast<unsigned>(base_));
        return k < slots_.size() ? slots_[k] : -1;
    }

    /// The slot of buffer `id` for assignment; -1 until assigned.
    int& at(int id);

private:
    std::vector<int> slots_; ///< slot of buffer id base_ + k
    int base_ = 0;
};

/// One focus while a run is in progress. Only the outermost activation
/// (depth 1) is counted, snapshots the totals and notes element accesses,
/// exactly as a kernel's recursive calls count as part of the call that
/// encloses them.
class FocusTracker {
public:
    /// Where the observations go; set before the first enter().
    FocusStats* stats = nullptr;
    int depth = 0;

    /// Opens an activation. For an outermost one it counts the activation,
    /// snapshots `prof`'s totals and returns true: the caller then binds the
    /// activation's buffers in parameter order.
    bool enter(const ExecutionProfile& prof) {
        if (++depth != 1) return false;
        ++stats->calls;
        cost_before_ = prof.total_cost;
        flops_before_ = prof.total_flops;
        call_flops_before_ = prof.total_call_flops;
        bytes_before_ = prof.total_mem_bytes;
        seen_.clear();
        return true;
    }

    /// Binds buffer `id` to the parameter `name` of the activation being
    /// opened: two parameters naming one buffer alias, and a buffer not
    /// seen before gets its own access summary.
    void bind(int id, int elem_bytes, const std::string& name);

    /// Closes an activation; an outermost one adds the totals since its
    /// enter() to the stats.
    void exit(const ExecutionProfile& prof) {
        if (depth == 1) {
            stats->cost += prof.total_cost - cost_before_;
            stats->flops += prof.total_flops - flops_before_;
            stats->call_flops += prof.total_call_flops - call_flops_before_;
            stats->mem_bytes += prof.total_mem_bytes - bytes_before_;
        }
        --depth;
    }

    /// Records an element access (after its charge) when the focus is in
    /// its outermost activation and the buffer is one of its own.
    void note(int id, long long index, bool write) {
        if (depth != 1) return;
        const int slot = slots_.find(id);
        if (slot >= 0)
            stats->buffers[static_cast<std::size_t>(slot)].record(index,
                                                                  write);
    }

    /// Adds accesses to buffer `id`, summarised, if it is one of its own.
    void merge(int id, const BufferAccess& accesses) {
        const int slot = slots_.find(id);
        if (slot >= 0)
            stats->buffers[static_cast<std::size_t>(slot)].merge(accesses);
    }

private:
    double cost_before_ = 0.0;
    double flops_before_ = 0.0;
    double call_flops_before_ = 0.0;
    double bytes_before_ = 0.0;
    BufferSlots slots_;     ///< buffer id -> stats->buffers index
    std::vector<int> seen_; ///< buffer ids bound by the open activation
};

/// The focus regions of one run. Regions nest (a time-step loop calls the
/// function holding the hot loop), so an access can belong to several open
/// regions. It is recorded once, in a live summary of its buffer; every
/// region entry and exit first drains the live summaries into the regions
/// then open at depth 1 — exactly the ones the accesses since the last
/// drain belong to — so an access costs the same however many regions are
/// open.
class RegionFocus {
public:
    explicit RegionFocus(std::size_t regions) : trackers_(regions) {}

    /// Opens an activation of region `k`, whose observations go to `stats`.
    /// `frame` tags the activation for the engine (the VM closes a
    /// returning frame's regions by it). Returns true for an outermost
    /// activation: the caller then binds its buffers with bind().
    bool enter(std::size_t k, FocusStats& stats, const ExecutionProfile& prof,
               std::size_t frame);

    /// Binds a buffer of the activation enter() just opened.
    void bind(int id, int elem_bytes, const std::string& name);

    /// Closes the innermost open activation.
    void exit(const ExecutionProfile& prof);

    [[nodiscard]] bool open() const { return !open_.empty(); }
    /// The `frame` tag of the innermost open activation.
    [[nodiscard]] std::size_t open_frame() const { return open_.back().frame; }

    /// Records an element access (after its charge) while a region is
    /// open.
    void note(int id, long long index, bool write) {
        const int slot = live_slots_.find(id);
        if (slot >= 0) live_[static_cast<std::size_t>(slot)].record(index, write);
    }

private:
    void drain();

    struct Open {
        FocusTracker* tracker;
        std::size_t frame;
    };
    std::vector<FocusTracker> trackers_; ///< one per region
    std::vector<Open> open_;             ///< open activations, innermost last
    /// Accesses since the last drain, per buffer any region has bound.
    BufferSlots live_slots_;
    std::vector<int> live_ids_;
    std::vector<BufferAccess> live_;
};

/// One focus region: an outermost loop and the arrays a kernel extracted
/// from it would take as pointer parameters.
struct RegionSpec {
    const ast::For* loop = nullptr;
    /// The loop's free arrays in meta::free_variables order, the order
    /// transform::extract_hotspot gives the kernel's pointer parameters.
    std::vector<std::string> buffers;
};

/// The focus regions of `function`: each of its outermost for-loops (as
/// meta::outermost_for_loops lists them), in source order.
[[nodiscard]] std::vector<RegionSpec>
focus_regions(const ast::Function& function, const sema::TypeInfo& types);

} // namespace psaflow::interp
