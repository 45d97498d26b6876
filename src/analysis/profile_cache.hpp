// Memoization of profiling interpreter runs.
//
// Every dynamic design-flow task executes the application under the
// tree-walking interpreter, which pays a ~100x constant factor versus
// native execution. Branched PSA-flows fork the FlowContext per path, and
// each fork lazily recomputes its kernel characterisation — re-running the
// *same* program on the *same* inputs whenever no transform has touched the
// module yet. DSE loops and the fig5/fig6 harnesses (which compile each app
// in both PSA modes) repeat the identical runs again.
//
// The cache keys a profiled run by
//   (module content hash, entry/focus function, region focus, argument
//    digest, step limit)
// where the content hash covers the module printed with every pragma left
// out (ast::to_source_without_pragmas) and the argument digest covers scalar
// values and full buffer contents. The printer is source-faithful, so equal
// pragma-free text implies an AST that is isomorphic up to pragmas — and
// pragmas cannot change a profile: no interpreter engine, analysis or sema
// pass reads them, and they never change loop structure. A PSA-flow path
// that only adds `omp parallel for` or `gpu shared(...)` therefore reuses
// the profile of the module it annotated instead of re-running it. (The
// design-artifact key and every emitted design do keep pragmas: they change
// the design, not the profile.) Profiles keyed this way are safe to share
// across AST clones with one correction: LoopStats are keyed by node id, and
// clones get fresh ids. Cached entries therefore also record the pre-order
// For-loop id sequence of the module they were computed on; a hit remaps the
// stats (and the focus regions, keyed by loop id too) onto the current
// module's loop ids by position (equal pragma-free text guarantees the same
// loop structure and order).
//
// A miss (or a run with no cache, see profile_run) runs the interpreter
// inside its own "run_function:<entry>" span in category "interp:vm", so in
// a trace only real runs carry an "interp:*" category.
//
// A cache constructed over a content-addressed store (support/cas; a
// FlowSession passes its own) also persists profiles on disk: an
// in-memory miss falls back to a checksum-verified disk read before
// recomputing, and fresh profiles are written through.
// Disk entries store loop stats and regions keyed by *pre-order position*
// (not node id), with bit-exact doubles, so any later process — whose
// clones carry different node ids — can remap them onto its own module and
// reproduce the computed profile exactly.
//
// Thread-safe; each FlowSession owns one. Hits/misses are counted here and
// mirrored into the trace registry as "profile_cache.hits" /
// "profile_cache.misses" / "profile_cache.disk_hits".
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ast/nodes.hpp"
#include "interp/interpreter.hpp"
#include "sema/type_check.hpp"

namespace psaflow::cas {
class CasStore;
} // namespace psaflow::cas

namespace psaflow::analysis {

struct ProfileCacheStats {
    std::uint64_t hits = 0;      ///< in-memory hits
    std::uint64_t disk_hits = 0; ///< served from the content-addressed store
    std::uint64_t misses = 0;    ///< recomputed under the interpreter
};

class ProfileCache {
public:
    /// An empty cache; a non-null `store` (not owned) adds the disk tier.
    explicit ProfileCache(cas::CasStore* store = nullptr);

    /// Run `entry(args)` on `module` under the profiling interpreter, or
    /// return the memoized profile of an identical earlier run (with loop
    /// stats remapped onto this module's node ids). `options.profile` is
    /// forced on.
    [[nodiscard]] interp::ExecutionProfile
    run(const ast::Module& module, const sema::TypeInfo& types,
        const std::string& entry, const std::vector<interp::Arg>& args,
        interp::InterpOptions options = {});

    void clear();
    [[nodiscard]] ProfileCacheStats stats() const;

private:
    /// Entry cap: when the cache grows past this many distinct runs it is
    /// flushed wholesale (profiles are small; the cap only bounds
    /// pathological DSE sweeps over ever-changing modules).
    static constexpr std::size_t kMaxEntries = 4096;

    struct Entry {
        interp::ExecutionProfile profile;
        /// Pre-order For-node ids of the module the profile was computed on.
        std::vector<ast::Node::Id> loop_order;
    };

    /// Remap `entry`'s loop stats onto `module`'s current node ids by
    /// pre-order position; nullopt when the loop structure differs (which
    /// equal source text should make impossible — recompute defensively).
    [[nodiscard]] static std::optional<interp::ExecutionProfile>
    remap_onto(const Entry& entry, const ast::Module& module);

    cas::CasStore* const store_;
    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    ProfileCacheStats stats_;
};

/// `cache->run(...)`, or an uncached profiled interpreter run when `cache`
/// is null (a session with its profile cache off, or a caller with none).
[[nodiscard]] interp::ExecutionProfile
profile_run(ProfileCache* cache, const ast::Module& module,
            const sema::TypeInfo& types, const std::string& entry,
            const std::vector<interp::Arg>& args,
            interp::InterpOptions options = {});

/// FNV-1a digest of a top-level argument list: scalar type tags and bit
/// patterns, buffer element types, sizes and full contents.
[[nodiscard]] std::uint64_t digest_args(const std::vector<interp::Arg>& args);

/// Serialise a profile for the content-addressed store. Loop stats are
/// keyed by their position in `loop_order` (the pre-order For-node ids of
/// the module the profile was computed on); doubles are stored as bit
/// patterns, so a reload reproduces the profile exactly. Exposed for the
/// CAS round-trip tests.
[[nodiscard]] std::string
serialize_profile_payload(const interp::ExecutionProfile& profile,
                          const std::vector<ast::Node::Id>& loop_order);

/// Parse a payload written by serialize_profile_payload. On success the
/// profile's loop stats are keyed by pre-order *position* (0..n-1) and
/// `loop_count` is the serialised module's For-loop count.
[[nodiscard]] bool parse_profile_payload(std::string_view payload,
                                         interp::ExecutionProfile& profile,
                                         std::size_t& loop_count);

} // namespace psaflow::analysis
