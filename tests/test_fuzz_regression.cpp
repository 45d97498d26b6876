// Replays every checked-in corpus program — generator-produced seeds plus
// shrunken reproducers for previously-fixed bugs — through the full
// differential oracle stack. A failure here is a regression in a transform,
// an emitter, or the flow engine that the fuzzer has caught before.
//
// To refresh the generated part of the corpus after a deliberate generator
// change:  psaflow-fuzz --emit-seeds tests/corpus --seed 1 --runs 20
// (reproducer files are hand-curated; never regenerate those).
#include <gtest/gtest.h>

#include <cstdint>

#include "fuzz/corpus.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"

namespace {

using namespace psaflow;

TEST(FuzzRegression, CorpusReplaysClean) {
    const auto corpus = fuzz::load_corpus(PSAFLOW_CORPUS_DIR);
    ASSERT_GE(corpus.size(), 20u)
        << "seed corpus went missing from " << PSAFLOW_CORPUS_DIR;
    for (const auto& entry : corpus) {
        const auto outcome = fuzz::run_oracles(entry.source, {});
        for (const auto& f : outcome.failures)
            ADD_FAILURE() << entry.path << ": " << f.oracle << ": "
                          << f.detail;
    }
}

TEST(FuzzRegression, IdenticalSeedsAreByteIdentical) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234567ULL}) {
        const auto a = fuzz::generate_program(seed, {});
        const auto b = fuzz::generate_program(seed, {});
        EXPECT_EQ(a.source, b.source) << "seed " << seed;
    }
}

TEST(FuzzRegression, DistinctSeedsDiffer) {
    EXPECT_NE(fuzz::generate_program(1, {}).source,
              fuzz::generate_program(2, {}).source);
}

TEST(FuzzRegression, ColdVsWarmCacheOracleHolds) {
    // The "flow:cache" oracle: an uncached run, a run against an empty
    // content-addressed store and a run served from that store must produce
    // byte-identical FlowResults for arbitrary generated programs.
    fuzz::OracleOptions options;
    options.check_roundtrip = false; // focus the time budget on the flow
    options.check_transforms = false;
    options.check_codegen = false;
    options.check_cache = true;
    for (const std::uint64_t seed : {601ULL, 602ULL}) {
        const auto program = fuzz::generate_program(seed, {});
        const auto outcome = fuzz::run_oracles(program.source, options);
        for (const auto& f : outcome.failures)
            ADD_FAILURE() << "seed " << seed << ": " << f.oracle << ": "
                          << f.detail;
    }
}

TEST(FuzzRegression, VmEngineMatchesTreeWalkerOnCorpus) {
    // The "interp:vm" oracle over every checked-in program: the bytecode VM
    // and the tree walker must agree bit-for-bit on results, buffers and
    // serialized profiles. The interp-vm-* entries were curated to stress
    // engine-sensitive constructs (float compound rounding, truncating
    // division, short-circuit charges, zero-trip loops, aliased buffers,
    // early returns through loops, local arrays, builtins, induction-var
    // writes); the rest of the corpus rides along for free.
    fuzz::OracleOptions options;
    options.check_roundtrip = false; // focus the budget on the engine diff
    options.check_transforms = false;
    options.check_codegen = false;
    options.check_flow = false;
    options.check_vm = true;
    const auto corpus = fuzz::load_corpus(PSAFLOW_CORPUS_DIR);
    ASSERT_GE(corpus.size(), 30u)
        << "VM corpus went missing from " << PSAFLOW_CORPUS_DIR;
    for (const auto& entry : corpus) {
        const auto outcome = fuzz::run_oracles(entry.source, options);
        for (const auto& f : outcome.failures)
            ADD_FAILURE() << entry.path << ": " << f.oracle << ": "
                          << f.detail;
    }
}

TEST(FuzzRegression, PragmaOnlyEditsShareTheProfileOnCorpus) {
    // The "profile:pragma" oracle over every checked-in program: random
    // pragmas from the transforms' vocabulary must not cost a profile-cache
    // miss, and the served profile must match an uncached run bit for bit.
    fuzz::OracleOptions options;
    options.check_roundtrip = false;
    options.check_transforms = false;
    options.check_codegen = false;
    options.check_flow = false; // only the pragma half of check_cache
    options.check_cache = true;
    const auto corpus = fuzz::load_corpus(PSAFLOW_CORPUS_DIR);
    ASSERT_GE(corpus.size(), 30u)
        << "corpus went missing from " << PSAFLOW_CORPUS_DIR;
    for (const auto& entry : corpus) {
        const auto outcome = fuzz::run_oracles(entry.source, options);
        for (const auto& f : outcome.failures)
            ADD_FAILURE() << entry.path << ": " << f.oracle << ": "
                          << f.detail;
    }
}

TEST(FuzzRegression, GeneratedProgramsPassOracles) {
    // A handful of fresh seeds beyond the stored corpus, so the suite also
    // covers the generator/oracle pair itself, not just the snapshot.
    for (const std::uint64_t seed : {501ULL, 502ULL, 503ULL}) {
        const auto program = fuzz::generate_program(seed, {});
        const auto outcome = fuzz::run_oracles(program.source, {});
        for (const auto& f : outcome.failures)
            ADD_FAILURE() << "seed " << seed << ": " << f.oracle << ": "
                          << f.detail;
    }
}

} // namespace
