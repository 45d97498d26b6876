// Execution profiles collected by the interpreter. These are the raw
// material of the paper's dynamic analyses: per-loop cost ("loop timers"),
// trip counts, per-buffer access ranges (data in/out), and observed argument
// aliasing for the kernel function or for each outermost loop.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/nodes.hpp"

namespace psaflow::interp {

/// Statistics for one loop node, keyed by node id.
struct LoopStats {
    long long entries = 0;   ///< how many times execution reached the loop
    long long trips = 0;     ///< total iterations across all entries
    double cost = 0.0;       ///< cost units attributed (including nested work)
    /// Cost excluding work done inside called functions: a time-step driver
    /// loop has a large `cost` but a tiny `self_cost`, so hotspot detection
    /// ranks the loop *doing* the work, not the loop calling it.
    double self_cost = 0.0;
    double flops = 0.0;      ///< floating-point operation count (weighted)
    double mem_bytes = 0.0;  ///< bytes moved by array accesses

    [[nodiscard]] double avg_trip_count() const {
        return entries == 0 ? 0.0
                            : static_cast<double>(trips) /
                                  static_cast<double>(entries);
    }

    bool operator==(const LoopStats&) const = default;
};

/// Observed access range for one buffer within the focus function.
struct BufferAccess {
    std::string buffer_name; ///< name of the parameter inside the focus fn
    int elem_bytes = 0;
    long long min_read = std::numeric_limits<long long>::max();
    long long max_read = -1;
    long long min_write = std::numeric_limits<long long>::max();
    long long max_write = -1;
    long long reads = 0;
    long long writes = 0;

    [[nodiscard]] bool read() const { return reads > 0; }
    [[nodiscard]] bool written() const { return writes > 0; }

    /// Bytes that must be transferred *to* an accelerator for this buffer:
    /// the extent of the read range.
    [[nodiscard]] long long bytes_in() const {
        return read() ? (max_read - min_read + 1) * elem_bytes : 0;
    }
    /// Bytes transferred *back*: the extent of the written range.
    [[nodiscard]] long long bytes_out() const {
        return written() ? (max_write - min_write + 1) * elem_bytes : 0;
    }

    /// Adds one element access.
    void record(long long index, bool write) {
        if (write) {
            min_write = std::min(min_write, index);
            max_write = std::max(max_write, index);
            ++writes;
        } else {
            min_read = std::min(min_read, index);
            max_read = std::max(max_read, index);
            ++reads;
        }
    }

    /// Adds the accesses `other` summarises.
    void merge(const BufferAccess& other) {
        min_read = std::min(min_read, other.min_read);
        max_read = std::max(max_read, other.max_read);
        min_write = std::min(min_write, other.min_write);
        max_write = std::max(max_write, other.max_write);
        reads += other.reads;
        writes += other.writes;
    }

    bool operator==(const BufferAccess&) const = default;
};

/// What one focus observed: the calls of the focus function, or the
/// entries of one focus region (an outermost loop, see
/// InterpOptions::region_focus). Only an outermost activation counts; a
/// recursive re-entry is part of the activation that encloses it.
struct FocusStats {
    long long calls = 0; ///< activations: focus calls or region entries
    double cost = 0.0;
    double flops = 0.0;
    double call_flops = 0.0; ///< flops charged by builtin math calls
    double mem_bytes = 0.0;
    /// Access summary per buffer: the focus function's pointer parameters,
    /// or the region's free arrays, in parameter order.
    std::vector<BufferAccess> buffers;
    /// True if two of those buffers named the same buffer at any entry.
    bool args_alias = false;

    [[nodiscard]] const BufferAccess* buffer(const std::string& name) const {
        for (const auto& b : buffers) {
            if (b.buffer_name == name) return &b;
        }
        return nullptr;
    }

    /// Total bytes in+out — the paper's "data in/out analysis" result used
    /// to estimate accelerator transfer time.
    [[nodiscard]] long long bytes_in() const {
        long long total = 0;
        for (const auto& b : buffers) total += b.bytes_in();
        return total;
    }
    [[nodiscard]] long long bytes_out() const {
        long long total = 0;
        for (const auto& b : buffers) total += b.bytes_out();
        return total;
    }

    bool operator==(const FocusStats&) const = default;
};

/// Full profile of one interpreted run.
struct ExecutionProfile {
    /// Per-loop statistics, keyed by AST node id.
    std::unordered_map<ast::Node::Id, LoopStats> loops;

    /// Total cost units of the run (the "single CPU thread" reference work).
    double total_cost = 0.0;
    double total_flops = 0.0;
    double total_call_flops = 0.0; ///< flops charged by builtin math calls
    double total_mem_bytes = 0.0;

    /// Focus-function observations (set when the interpreter was given a
    /// focus function, normally the extracted hotspot kernel).
    std::string focus_function;
    FocusStats focus;

    /// Region observations (InterpOptions::region_focus), keyed by the node
    /// id of each outermost loop that ran. A region's stats equal the
    /// function focus of a kernel extracted from that loop
    /// (transform::extract_hotspot) on the same inputs.
    std::unordered_map<ast::Node::Id, FocusStats> regions;

    [[nodiscard]] const LoopStats* loop(ast::Node::Id id) const {
        auto it = loops.find(id);
        return it == loops.end() ? nullptr : &it->second;
    }

    [[nodiscard]] const FocusStats* region(ast::Node::Id id) const {
        auto it = regions.find(id);
        return it == regions.end() ? nullptr : &it->second;
    }
};

} // namespace psaflow::interp
