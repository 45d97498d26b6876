// Determinism and caching of the parallel flow engine: any worker count must
// produce a FlowResult byte-identical to the sequential engine, repeated
// identical interpreter runs must hit the profile cache, and the trace
// registry must record the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <vector>

#include "analysis/profile_cache.hpp"
#include "ast/clone.hpp"
#include "ast/walk.hpp"
#include "core/psaflow.hpp"
#include "flow/engine.hpp"
#include "meta/instrument.hpp"
#include "meta/query.hpp"
#include "support/cas/cas.hpp"
#include "support/trace.hpp"
#include "test_util.hpp"
#include "transform/single_precision.hpp"

namespace psaflow {
namespace {

using analysis::ProfileCache;
using psaflow::testing::parse_and_check;

interp::Arg integer(long long v) { return interp::Value::of_int(v); }

analysis::Workload small_workload() {
    analysis::Workload w;
    w.entry = "app";
    w.make_args = [](double scale) {
        const int n = static_cast<int>(16 * scale);
        return std::vector<interp::Arg>{
            integer(n),
            std::make_shared<interp::Buffer>(ast::Type::Double, 64, "a")};
    };
    return w;
}

constexpr const char* kSmallApp = R"(
void app(int n, double* a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] = a[i] + a[j] * 0.5;
        }
    }
}
)";

void expect_identical(const flow::FlowResult& seq,
                      const flow::FlowResult& par, const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_DOUBLE_EQ(seq.reference_seconds, par.reference_seconds);
    EXPECT_EQ(seq.log, par.log);
    ASSERT_EQ(seq.designs.size(), par.designs.size());
    for (std::size_t i = 0; i < seq.designs.size(); ++i) {
        const auto& a = seq.designs[i];
        const auto& b = par.designs[i];
        SCOPED_TRACE("design #" + std::to_string(i) + " = " + a.name());
        EXPECT_EQ(a.name(), b.name());
        EXPECT_EQ(a.source, b.source);
        EXPECT_DOUBLE_EQ(a.hotspot_seconds, b.hotspot_seconds);
        EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
        EXPECT_DOUBLE_EQ(a.loc_delta, b.loc_delta);
        EXPECT_EQ(a.synthesizable, b.synthesizable);
        EXPECT_EQ(a.log, b.log);
    }
    // Provenance rides along with the result and must be just as
    // deterministic: same branch deliberations in the same order.
    ASSERT_EQ(seq.decisions.size(), par.decisions.size());
    for (std::size_t i = 0; i < seq.decisions.size(); ++i) {
        const auto& a = seq.decisions[i];
        const auto& b = par.decisions[i];
        SCOPED_TRACE("decision #" + std::to_string(i) + " = " + a.branch);
        EXPECT_EQ(a.branch, b.branch);
        EXPECT_EQ(a.strategy, b.strategy);
        EXPECT_EQ(a.feedback_iteration, b.feedback_iteration);
        EXPECT_EQ(a.selected, b.selected);
        EXPECT_EQ(a.rationale, b.rationale);
        ASSERT_EQ(a.candidates.size(), b.candidates.size());
        for (std::size_t j = 0; j < a.candidates.size(); ++j) {
            const auto& ca = a.candidates[j];
            const auto& cb = b.candidates[j];
            EXPECT_EQ(ca.path, cb.path);
            EXPECT_EQ(ca.selected, cb.selected);
            EXPECT_EQ(ca.excluded, cb.excluded);
            EXPECT_DOUBLE_EQ(ca.predicted_seconds, cb.predicted_seconds);
            EXPECT_DOUBLE_EQ(ca.run_cost, cb.run_cost);
            EXPECT_EQ(ca.evaluation, cb.evaluation);
        }
    }
}

// ------------------------------------------------- parallel determinism ----

class EngineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDeterminism, ParallelMatchesSequentialBothModes) {
    const apps::Application& app = apps::application_by_name(GetParam());
    for (flow::Mode mode : {flow::Mode::Informed, flow::Mode::Uninformed}) {
        RunOptions sequential;
        sequential.mode = mode;
        sequential.jobs = 1;
        RunOptions parallel = sequential;
        parallel.jobs = 4;

        const auto seq = compile(app, sequential);
        const auto par = compile(app, parallel);
        expect_identical(
            seq, par,
            app.name + (mode == flow::Mode::Informed ? "/informed"
                                                     : "/uninformed"));
    }
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineDeterminism,
                         ::testing::Values("nbody", "adpredictor", "kmeans",
                                           "rushlarsen", "bezier"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

TEST(EngineParallel, RepeatedRunsIdenticalUnderSharedCache) {
    // Back-to-back runs share the process-wide profile cache; the second
    // run (mostly cache hits) must still produce the identical result.
    const apps::Application& app = apps::application_by_name("nbody");
    RunOptions options;
    options.jobs = 4;
    const auto first = compile(app, options);
    const auto second = compile(app, options);
    expect_identical(first, second, "nbody repeat");
}

TEST(EngineParallel, WarmDiskCacheIdenticalAcrossJobCounts) {
    // The cold/warm contract of the content-addressed store: a run against
    // an empty store, a run served from disk, and a warm parallel run must
    // all produce byte-identical FlowResults.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "psaflow-engine-warm-cache";
    fs::remove_all(root);
    cas::configure(root.string());
    ProfileCache::global().clear();

    const apps::Application& app = apps::application_by_name("nbody");
    RunOptions sequential;
    sequential.jobs = 1;
    const auto cold = compile(app, sequential);

    // Drop the in-memory tier so the rerun can only warm up from disk.
    ProfileCache::global().clear();
    const auto warm_seq = compile(app, sequential);
    expect_identical(cold, warm_seq, "nbody cold vs warm jobs=1");
    EXPECT_GT(ProfileCache::global().stats().disk_hits, 0u);

    ProfileCache::global().clear();
    RunOptions parallel;
    parallel.jobs = 4;
    const auto warm_par = compile(app, parallel);
    expect_identical(cold, warm_par, "nbody cold vs warm jobs=4");

    cas::configure(""); // disable disk caching for the remaining tests
    std::error_code ec;
    fs::remove_all(root, ec);
}

// ------------------------------------------------------- profile cache -----

TEST(ProfileCacheTest, SecondIdenticalRunHits) {
    auto [mod, types] = parse_and_check(kSmallApp);
    auto& cache = ProfileCache::global();
    cache.clear();
    const analysis::Workload w = small_workload();

    const auto before = cache.stats();
    const auto p1 = cache.run(*mod, types, w.entry, w.make_args(1.0));
    const auto p2 = cache.run(*mod, types, w.entry, w.make_args(1.0));
    const auto after = cache.stats();

    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_DOUBLE_EQ(p1.total_cost, p2.total_cost);
}

TEST(ProfileCacheTest, CloneHitsAndLoopStatsRemapOntoFreshNodeIds) {
    auto [mod, types] = parse_and_check(kSmallApp);
    auto& cache = ProfileCache::global();
    cache.clear();
    const analysis::Workload w = small_workload();

    const auto p1 = cache.run(*mod, types, w.entry, w.make_args(1.0));

    // A clone prints to identical source but carries fresh node ids.
    auto clone = ast::clone_module(*mod);
    auto clone_types = sema::check(*clone);
    const auto p2 =
        cache.run(*clone, clone_types, w.entry, w.make_args(1.0));

    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_DOUBLE_EQ(p1.total_cost, p2.total_cost);

    // The hit's loop stats must be keyed by the *clone's* For-node ids.
    int loops_found = 0;
    ast::walk(static_cast<const ast::Node&>(*clone),
              [&](const ast::Node& n) {
                  if (n.kind() == ast::NodeKind::For &&
                      p2.loops.count(n.id) != 0)
                      ++loops_found;
                  return true;
              });
    EXPECT_EQ(loops_found, 2);
}

TEST(ProfileCacheTest, MutatedModuleMisses) {
    auto [mod, types] = parse_and_check(kSmallApp);
    auto& cache = ProfileCache::global();
    cache.clear();
    const analysis::Workload w = small_workload();

    (void)cache.run(*mod, types, w.entry, w.make_args(1.0));

    // Same shape, different constant: the content hash must differ.
    auto [mutated, mutated_types] = parse_and_check(R"(
void app(int n, double* a) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            a[i] = a[i] + a[j] * 0.25;
        }
    }
}
)");
    (void)cache.run(*mutated, mutated_types, w.entry, w.make_args(1.0));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

/// kSmallApp's loops with a pragma of each kind the transforms attach:
/// OpenMP on the outer loop, a shared-memory buffer annotation, an unroll
/// hint on the inner loop.
ast::ModulePtr with_pragmas(const ast::Module& module) {
    auto edited = ast::clone_module(module);
    const auto loops = meta::for_loops(*edited);
    meta::add_pragma(*loops.at(0), "omp parallel for num_threads(32)");
    meta::add_pragma(*loops.at(0), "gpu shared(a)");
    meta::add_pragma(*loops.at(1), "unroll 4");
    return edited;
}

interp::InterpOptions focused_on_app() {
    interp::InterpOptions options;
    options.focus_function = "app"; // exercise the focus fields too
    return options;
}

/// Bit-exact, field-for-field equality of two profiles of `module`: the
/// CAS payload serialises every field (doubles as bit patterns, loop stats
/// by pre-order position), and the loop maps must key the same node ids.
void expect_same_profile(const interp::ExecutionProfile& got,
                         const interp::ExecutionProfile& want,
                         ast::Module& module) {
    std::vector<ast::Node::Id> order;
    for (const ast::For* loop : meta::for_loops(module))
        order.push_back(loop->id);
    EXPECT_EQ(analysis::serialize_profile_payload(got, order),
              analysis::serialize_profile_payload(want, order));
    ASSERT_EQ(got.loops.size(), want.loops.size());
    for (const auto& [id, stats] : want.loops)
        EXPECT_EQ(got.loops.count(id), 1u) << "loop id " << id;
}

interp::ExecutionProfile uncached_run(const ast::Module& module,
                                      const sema::TypeInfo& types,
                                      const analysis::Workload& w) {
    auto& cache = ProfileCache::global();
    cache.set_enabled(false);
    auto profile =
        cache.run(module, types, w.entry, w.make_args(1.0), focused_on_app());
    cache.set_enabled(true);
    return profile;
}

TEST(ProfileCacheTest, PragmaOnlyEditHitsInMemory) {
    auto [mod, types] = parse_and_check(kSmallApp);
    auto& cache = ProfileCache::global();
    cache.clear();
    const analysis::Workload w = small_workload();
    (void)cache.run(*mod, types, w.entry, w.make_args(1.0), focused_on_app());

    auto edited = with_pragmas(*mod);
    ASSERT_NE(ast::to_source(*edited), ast::to_source(*mod));
    const auto edited_types = sema::check(*edited);
    const auto cached = cache.run(*edited, edited_types, w.entry,
                                  w.make_args(1.0), focused_on_app());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    expect_same_profile(cached, uncached_run(*edited, edited_types, w),
                        *edited);
}

TEST(ProfileCacheTest, PragmaOnlyEditHitsThroughTheDiskStore) {
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "psaflow-pragma-disk-cache";
    fs::remove_all(root);
    cas::configure(root.string());

    auto [mod, types] = parse_and_check(kSmallApp);
    auto& cache = ProfileCache::global();
    cache.clear();
    const analysis::Workload w = small_workload();
    (void)cache.run(*mod, types, w.entry, w.make_args(1.0), focused_on_app());

    // A cleared memory tier over the same store: only disk can serve it.
    cache.clear();
    auto edited = with_pragmas(*mod);
    const auto edited_types = sema::check(*edited);
    const auto cached = cache.run(*edited, edited_types, w.entry,
                                  w.make_args(1.0), focused_on_app());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    EXPECT_EQ(cache.stats().misses, 0u);
    expect_same_profile(cached, uncached_run(*edited, edited_types, w),
                        *edited);

    cas::configure("");
    std::error_code ec;
    fs::remove_all(root, ec);
}

TEST(ProfileCacheTest, SinglePrecisionEditStillMisses) {
    auto [mod, types] = parse_and_check(R"(
void app(int n, double* a) {
    for (int i = 0; i < n; i++) {
        double s = a[i] * 0.1;
        a[i] = s + 1.0;
    }
}
)");
    auto& cache = ProfileCache::global();
    cache.clear();
    const analysis::Workload w = small_workload();
    (void)cache.run(*mod, types, w.entry, w.make_args(1.0));

    auto edited = ast::clone_module(*mod);
    ast::Function& fn = *edited->find_function("app");
    EXPECT_GT(transform::employ_sp_literals(fn), 0);
    EXPECT_GT(transform::demote_double_locals(fn), 0);
    const auto edited_types = sema::check(*edited);
    (void)cache.run(*edited, edited_types, w.entry, w.make_args(1.0));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ProfileCacheTest, DesignArtifactKeyStillSeesPragmas) {
    // Pragmas change the emitted design, so unlike the profile key the
    // design-artifact key must tell a pragma-only edit apart.
    flow::FlowContext plain("small", psaflow::testing::parse(kSmallApp),
                            small_workload());
    flow::FlowContext same = plain.fork();
    flow::FlowContext edited = plain.fork();
    meta::add_pragma(*meta::for_loops(edited.module()).at(0),
                     "omp parallel for num_threads(32)");
    const auto key = [](flow::FlowContext& ctx) {
        return flow::detail::artifact_key(ctx, 1.0, "signature");
    };
    EXPECT_EQ(key(plain), key(same));
    EXPECT_NE(key(plain), key(edited));
}

TEST(ProfileCacheTest, DifferentArgsMiss) {
    auto [mod, types] = parse_and_check(kSmallApp);
    auto& cache = ProfileCache::global();
    cache.clear();
    const analysis::Workload w = small_workload();

    (void)cache.run(*mod, types, w.entry, w.make_args(1.0));
    (void)cache.run(*mod, types, w.entry, w.make_args(2.0));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ProfileCacheTest, DisabledCacheNeverHits) {
    auto [mod, types] = parse_and_check(kSmallApp);
    auto& cache = ProfileCache::global();
    cache.clear();
    cache.set_enabled(false);
    const analysis::Workload w = small_workload();

    (void)cache.run(*mod, types, w.entry, w.make_args(1.0));
    (void)cache.run(*mod, types, w.entry, w.make_args(1.0));
    EXPECT_EQ(cache.stats().hits, 0u);
    cache.set_enabled(true);
}

// ---------------------------------------------------------------- trace ----

TEST(TraceIntegration, BranchedFlowEmitsSpansAndCacheHits) {
    auto& registry = trace::Registry::global();
    registry.set_enabled(true);
    registry.clear();
    ProfileCache::global().clear();

    RunOptions options;
    options.mode = flow::Mode::Uninformed; // 5 designs: branched flow
    options.jobs = 4;
    const auto result =
        compile(apps::application_by_name("nbody"), options);
    EXPECT_EQ(result.designs.size(), 5u);

    const auto spans = registry.spans();
    bool saw_flow = false, saw_task = false, saw_finalize = false;
    for (const auto& s : spans) {
        if (s.name.rfind("run_flow:", 0) == 0) saw_flow = true;
        if (s.name.rfind("task:", 0) == 0) saw_task = true;
        if (s.name.rfind("finalize:", 0) == 0) saw_finalize = true;
    }
    EXPECT_TRUE(saw_flow);
    EXPECT_TRUE(saw_task);
    EXPECT_TRUE(saw_finalize);

    // Uninformed branching forks identical contexts down sibling paths; the
    // re-characterisations must be served from the cache.
    EXPECT_GT(registry.counter("profile_cache.hits"), 0u);
    EXPECT_GT(registry.counter("interp.runs"), 0u);
    EXPECT_GT(registry.counter("interp.steps"), 0u);

    const std::string json = registry.to_json();
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("profile_cache.hits"), std::string::npos);
}

TEST(TraceIntegration, ColdCompileProfilesEachDistinctProgramOnce) {
    // Pins the interpreter runs of a cold jobs=1 compile (cleared profile
    // cache, no disk store). Every run left is a real program change; a
    // higher count means something re-profiles a program it already has,
    // e.g. a key that sees pragmas again.
    struct Expected {
        const char* app;
        std::uint64_t informed;
        std::uint64_t uninformed;
    };
    const Expected table[] = {{"nbody", 5, 5},
                              {"adpredictor", 5, 7},
                              {"kmeans", 3, 5},
                              {"rushlarsen", 3, 3},
                              {"bezier", 3, 3}};
    cas::configure("");
    auto& cache = ProfileCache::global();
    const bool was_enabled = cache.enabled();
    cache.set_enabled(true);
    for (const Expected& row : table) {
        for (flow::Mode mode : {flow::Mode::Informed, flow::Mode::Uninformed}) {
            const bool informed = mode == flow::Mode::Informed;
            SCOPED_TRACE(std::string(row.app) +
                         (informed ? "/informed" : "/uninformed"));
            trace::Registry registry;
            registry.set_enabled(true);
            cache.clear();
            {
                trace::ScopedRegistry install(registry);
                RunOptions options;
                options.mode = mode;
                options.jobs = 1;
                (void)compile(apps::application_by_name(row.app), options);
            }
            const std::uint64_t runs = registry.counter("interp.runs");
            EXPECT_EQ(runs, informed ? row.informed : row.uninformed);

            // Only real runs carry an interpreter category; the analysis
            // spans that wrap cache lookups do not.
            std::uint64_t interp_spans = 0;
            for (const auto& span : registry.spans()) {
                if (span.category.rfind("interp:", 0) == 0) ++interp_spans;
                if (span.name.rfind("characterize:", 0) == 0 ||
                    span.name.rfind("detect_hotspots:", 0) == 0) {
                    EXPECT_EQ(span.category, "analysis") << span.name;
                }
            }
            EXPECT_EQ(interp_spans, runs);
        }
    }
    cache.set_enabled(was_enabled);
}

TEST(TraceIntegration, ParallelFlowKeepsASingleRootedSpanTree) {
    // Pool workers adopt the submitter's sink and active span, so even a
    // jobs=4 branched flow must trace as one tree: a single root, every
    // other span's parent resolving to a recorded span, and no cycles.
    trace::Registry registry;
    registry.set_enabled(true);
    ProfileCache::global().clear();

    {
        trace::ScopedRegistry install(registry);
        RunOptions options;
        options.mode = flow::Mode::Uninformed;
        options.jobs = 4;
        const auto result =
            compile(apps::application_by_name("nbody"), options);
        EXPECT_EQ(result.designs.size(), 5u);
        EXPECT_FALSE(result.decisions.empty());
    }

    const auto spans = registry.spans();
    ASSERT_GT(spans.size(), 1u);
    std::map<std::uint64_t, std::uint64_t> parent_of;
    std::size_t roots = 0;
    for (const auto& s : spans) {
        ASSERT_NE(s.id, 0u) << s.name;
        ASSERT_TRUE(parent_of.emplace(s.id, s.parent).second)
            << "duplicate span id for " << s.name;
        if (s.parent == 0) ++roots;
    }
    EXPECT_EQ(roots, 1u);
    for (const auto& s : spans) {
        if (s.parent == 0) continue;
        EXPECT_TRUE(parent_of.count(s.parent) != 0)
            << s.name << " has an orphaned parent id";
        // Walk to the root; a cycle would spin past the span count.
        std::uint64_t cursor = s.id;
        std::size_t hops = 0;
        while (cursor != 0 && hops <= spans.size()) {
            cursor = parent_of[cursor];
            ++hops;
        }
        EXPECT_EQ(cursor, 0u) << "cycle reached from " << s.name;
    }
}

} // namespace
} // namespace psaflow
