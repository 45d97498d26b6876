// Differential oracles for the fuzzing harness.
//
// Each oracle checks one semantic contract of the toolchain over an
// arbitrary well-typed HLC program:
//
//   roundtrip   print -> parse -> print reaches a fixpoint (the printer is
//               source-faithful and the parser loses nothing)
//   sema        the program type-checks (generator well-typedness)
//   baseline    the program interprets crash-free under fuzz_workload
//   interp:vm   (with check_vm) the bytecode VM and the tree walker produce
//               bit-identical results, buffer contents, error strings and
//               serialized execution profiles on the same workload
//   profile:pragma
//               (with check_cache) the program with random pragmas added
//               hits the profile-cache entry of the original, and the
//               served profile is bit-identical to an uncached run of the
//               edited program (pragmas never change a profile)
//   transform:* every transform in src/transform/ either rejects its
//               precondition with psaflow::Error (counted as a skip) or
//               produces a module that still type-checks, still round-trips
//               and is interpreter-observably equivalent to the original
//               (bitwise for structural transforms; within tolerance for
//               accumulation scalarisation and single-precision demotion,
//               which legitimately re-round)
//   codegen:*   all three emitters produce non-empty designs without
//               throwing on a kernel that satisfies their preconditions
//   flow:*      the full PSA flow engine at jobs=1 and jobs=N produces
//               byte-identical results (designs, logs and predictions), or
//               fails with the identical error; with check_cache, a cold
//               run against an empty content-addressed store and a warm
//               run served from it must also both match exactly
//
// A reported failure means a toolchain bug (or an unsound generated
// program, which is a generator bug): there are no known false positives.
#pragma once

#include <string>
#include <vector>

#include "fuzz/generator.hpp"

namespace psaflow::fuzz {

struct OracleOptions {
    /// Base problem size for fuzz_workload.
    int problem_size = 24;

    /// Individual oracle families; disabling expensive families speeds up
    /// shrinking when the failure is known to live elsewhere.
    bool check_roundtrip = true;
    bool check_transforms = true;
    bool check_codegen = true;
    bool check_flow = true;

    /// Tree-vs-VM engine differential ("interp:vm"): run the program under
    /// both interpreter engines with profiling focused on the function
    /// holding the first outer loop, and demand bit-exact equality of the
    /// result value, every buffer, the serialized profile payload and (when
    /// both runs raise) the error string. Off by default — it adds two
    /// profiled interpreter passes per program.
    bool check_vm = false;

    /// Cold-vs-warm persistent-cache oracle ("flow:cache"): run the flow
    /// once against an empty content-addressed store, then again with only
    /// the disk entries carried over; all three results (no cache, cold,
    /// warm) must be byte-identical. Also enables the "profile:pragma"
    /// oracle. Off by default — it triples the flow oracle's work and
    /// touches the filesystem.
    bool check_cache = false;

    /// Store root for the cache oracle; empty uses a fresh directory under
    /// the system temp path, removed afterwards.
    std::string cache_dir;

    /// Worker count compared against jobs=1 in the flow oracle.
    int flow_jobs = 3;
};

struct OracleFailure {
    std::string oracle; ///< e.g. "roundtrip", "transform:unroll2", "flow:jobs"
    std::string detail; ///< human-readable mismatch description
};

struct OracleOutcome {
    std::vector<OracleFailure> failures;
    int oracles_run = 0;       ///< oracles that executed to a verdict
    int transforms_applied = 0;
    int transforms_skipped = 0; ///< precondition rejections (not failures)

    [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run every enabled oracle over `source`. Never throws: malformed input is
/// reported as a "parse" failure, unexpected exceptions as "<oracle>:crash".
[[nodiscard]] OracleOutcome run_oracles(const std::string& source,
                                        const OracleOptions& options = {});

} // namespace psaflow::fuzz
