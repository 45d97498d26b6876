// psaflow-fuzz — generative fuzzing driver for the whole toolchain.
//
// Generates deterministic random HLC programs (one per seed) and checks
// every differential oracle over each: frontend round-trip, sema
// acceptance, transform equivalence under the interpreter, crash-free
// codegen through all three emitters, flow-engine determinism at jobs=1 vs
// jobs=N and (with --check-cache) cold-vs-warm persistent-cache identity.
// Failures can be delta-reduced (--shrink) and are persisted as replayable
// .psa files (--corpus-dir).
//
//   psaflow-fuzz --seed 1 --runs 200
//   psaflow-fuzz --seed 7 --runs 50 --shrink --corpus-dir corpus/
//   psaflow-fuzz --replay tests/corpus
//   psaflow-fuzz --emit-seeds tests/corpus --seed 1 --runs 20
//   psaflow-fuzz --seed 1 --runs 25 --check-cache
//   psaflow-fuzz --seed 1 --max-seconds 60 --runs 1000000   # smoke budget
//   psaflow-fuzz --check-manifest --seed 1 --runs 200
//       # manifest mode: random valid flow manifests, differentially
//       # checked against programmatic flows (fuzz/manifest_fuzz.hpp)
#include <chrono>
#include <iostream>
#include <string>

#include "fuzz/corpus.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/manifest_fuzz.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "support/cli.hpp"

using namespace psaflow;

namespace {

void print_failure(std::uint64_t seed, const fuzz::OracleFailure& f) {
    std::cerr << "FAIL seed=" << seed << " oracle=" << f.oracle << "\n"
              << "     " << f.detail << "\n";
}

} // namespace

int main(int argc, char** argv) {
    (void)cli::load_environment(); // the trace and log sinks' variables
    long long seed = 1;
    long long runs = 100;
    bool shrink = false;
    std::string corpus_dir;
    std::string replay_dir;
    std::string emit_dir;
    long long max_seconds = 0;
    long long problem_size = 24;
    long long flow_jobs = 3;
    bool check_cache = false;
    bool check_vm = false;
    bool check_manifest = false;
    std::string cache_dir;
    bool no_transforms = false;
    bool no_codegen = false;
    bool no_flow = false;
    bool no_roundtrip = false;

    cli::OptionParser parser(
        argv[0],
        {"[--seed <n>] [--runs <n>] [--shrink] [--corpus-dir <dir>]",
         "--replay <dir>",
         "--emit-seeds <dir> [--seed <n>] [--runs <n>]"});
    parser.integer("--seed", "<n>",
                   "base seed; run i uses seed + i (default 1)", &seed,
                   /*min=*/0);
    parser.integer("--runs", "<n>", "programs to generate (default 100)",
                   &runs, /*min=*/1);
    parser.flag("--shrink", "delta-reduce each failure before saving",
                &shrink);
    parser.str("--corpus-dir", "<dir>",
               "persist failures as replayable .psa files", &corpus_dir);
    parser.str("--replay", "<dir>", "re-check every .psa file in <dir>",
               &replay_dir);
    parser.str("--emit-seeds", "<dir>",
               "write the generated programs as a seed corpus", &emit_dir);
    parser.integer("--problem-size", "<n>", "workload base size (default 24)",
                   &problem_size, /*min=*/8); // fixed-bound loops index to 8
    parser.integer("--flow-jobs", "<n>",
                   "parallel jobs compared against 1 (default 3)", &flow_jobs,
                   /*min=*/2);
    parser.integer("--max-seconds", "<n>",
                   "stop fuzzing after a wall-clock budget", &max_seconds,
                   /*min=*/1);
    parser.flag("--check-cache",
                "also check cold-vs-warm persistent-cache identity",
                &check_cache);
    parser.flag("--check-vm",
                "also check tree-vs-VM interpreter bit-identity",
                &check_vm);
    parser.flag("--check-manifest",
                "manifest mode: random valid flow manifests checked "
                "against programmatic flows",
                &check_manifest);
    parser.str("--cache-dir", "<dir>",
               "store root for --check-cache (default: fresh temp dir)",
               &cache_dir);
    parser.flag("--no-transforms", "skip the transform oracles",
                &no_transforms);
    parser.flag("--no-codegen", "skip the codegen oracles", &no_codegen);
    parser.flag("--no-flow", "skip the flow-engine oracles", &no_flow);
    parser.flag("--no-roundtrip", "skip the round-trip oracle",
                &no_roundtrip);
    if (!parser.parse(argc, argv)) return 2;

    fuzz::OracleOptions oracle_options;
    oracle_options.problem_size = static_cast<int>(problem_size);
    oracle_options.flow_jobs = static_cast<int>(flow_jobs);
    oracle_options.check_transforms = !no_transforms;
    oracle_options.check_codegen = !no_codegen;
    oracle_options.check_flow = !no_flow;
    oracle_options.check_roundtrip = !no_roundtrip;
    oracle_options.check_cache = check_cache;
    oracle_options.check_vm = check_vm;
    oracle_options.cache_dir = cache_dir;

    // ---- manifest mode -----------------------------------------------
    if (check_manifest) {
        long long manifest_failures = 0;
        long long manifest_runs = 0;
        const auto manifest_start = std::chrono::steady_clock::now();
        for (long long i = 0; i < runs; ++i) {
            if (max_seconds > 0) {
                const auto elapsed =
                    std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now() - manifest_start);
                if (elapsed.count() >= max_seconds) break;
            }
            const std::uint64_t s = static_cast<std::uint64_t>(seed) +
                                    static_cast<std::uint64_t>(i);
            ++manifest_runs;
            if (const auto failure = fuzz::check_manifest(s)) {
                ++manifest_failures;
                print_failure(s, {"manifest", *failure});
            }
        }
        std::cout << manifest_runs << " manifest run(s), "
                  << manifest_failures << " failure(s)\n";
        return manifest_failures == 0 ? 0 : 1;
    }

    // ---- replay mode -------------------------------------------------
    if (!replay_dir.empty()) {
        const auto corpus = fuzz::load_corpus(replay_dir);
        if (corpus.empty()) {
            std::cerr << "no .psa files under '" << replay_dir << "'\n";
            return 2;
        }
        int failed = 0;
        for (const auto& entry : corpus) {
            const auto outcome = fuzz::run_oracles(entry.source,
                                                   oracle_options);
            if (!outcome.ok()) {
                ++failed;
                for (const auto& f : outcome.failures)
                    std::cerr << "FAIL " << entry.path << " oracle="
                              << f.oracle << "\n     " << f.detail << "\n";
            }
        }
        std::cout << "replayed " << corpus.size() << " corpus file(s), "
                  << failed << " failing\n";
        return failed == 0 ? 0 : 1;
    }

    // ---- emit-seeds mode ---------------------------------------------
    fuzz::GenOptions gen_options;
    gen_options.problem_size = oracle_options.problem_size;
    if (!emit_dir.empty()) {
        for (long long i = 0; i < runs; ++i) {
            const std::uint64_t s =
                static_cast<std::uint64_t>(seed) +
                static_cast<std::uint64_t>(i);
            const auto program = fuzz::generate_program(s, gen_options);
            const std::string path = fuzz::save_corpus_entry(
                emit_dir, s, "", "", program.source);
            std::cout << "wrote " << path << "\n";
        }
        return 0;
    }

    // ---- fuzzing loop ------------------------------------------------
    const auto start = std::chrono::steady_clock::now();
    auto out_of_budget = [&] {
        if (max_seconds <= 0) return false;
        const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start);
        return elapsed.count() >= max_seconds;
    };

    long long executed = 0;
    long long failures = 0;
    long long oracles = 0;
    long long applied = 0;
    long long skipped = 0;
    for (long long i = 0; i < runs && !out_of_budget(); ++i) {
        const std::uint64_t s = static_cast<std::uint64_t>(seed) +
                                static_cast<std::uint64_t>(i);
        const auto program = fuzz::generate_program(s, gen_options);
        ++executed;

        // Generator determinism is itself an acceptance criterion.
        const auto again = fuzz::generate_program(s, gen_options);
        if (again.source != program.source) {
            ++failures;
            print_failure(s, {"determinism",
                              "same seed generated different programs"});
            continue;
        }

        const auto outcome = fuzz::run_oracles(program.source,
                                               oracle_options);
        oracles += outcome.oracles_run;
        applied += outcome.transforms_applied;
        skipped += outcome.transforms_skipped;
        if (outcome.ok()) continue;

        failures += static_cast<long long>(outcome.failures.size());
        for (const auto& f : outcome.failures) print_failure(s, f);

        // Reduce and persist the first failure of the run.
        const auto& first = outcome.failures.front();
        std::string reproducer = program.source;
        if (shrink) {
            const auto predicate =
                fuzz::make_failure_predicate(first.oracle, oracle_options);
            const auto reduced =
                fuzz::shrink_source(program.source, predicate);
            std::cerr << "     shrunk by " << reduced.edits_applied
                      << " edit(s) in " << reduced.checks_used
                      << " check(s)\n";
            reproducer = reduced.source;
        }
        if (!corpus_dir.empty()) {
            const std::string path = fuzz::save_corpus_entry(
                corpus_dir, s, first.oracle, first.detail, reproducer);
            std::cerr << "     saved " << path << "\n";
        } else if (shrink) {
            std::cerr << "----- reduced reproducer -----\n"
                      << reproducer << "------------------------------\n";
        }
    }

    std::cout << executed << " run(s), " << oracles << " oracle(s), "
              << applied << " transform(s) applied, " << skipped
              << " skipped, " << failures << " failure(s)\n";
    return failures == 0 ? 0 : 1;
}
