// Determinism and caching of the parallel flow engine: any worker count must
// produce a FlowResult byte-identical to the sequential engine, repeated
// identical interpreter runs must hit the profile cache, and the trace
// registry must record the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/profile_cache.hpp"
#include "ast/clone.hpp"
#include "ast/walk.hpp"
#include "core/psaflow.hpp"
#include "flow/engine.hpp"
#include "flow/payload.hpp"
#include "frontend/parser.hpp"
#include "meta/instrument.hpp"
#include "meta/query.hpp"
#include "support/cas/cas.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"
#include "test_util.hpp"
#include "transform/single_precision.hpp"

namespace psaflow {
namespace {

using analysis::ProfileCache;
using psaflow::testing::parse_and_check;

interp::Arg integer(long long v) { return interp::Value::of_int(v); }

/// A session with `jobs` workers (0: the hardware concurrency) over the
/// store at `cache_dir` ("" = none).
flow::SessionOptions session_at(int jobs, const std::string& cache_dir = {}) {
    flow::SessionOptions session_options;
    session_options.jobs = jobs;
    session_options.cache_dir = cache_dir;
    return session_options;
}

/// compile() through a fresh session_at(jobs, cache_dir).
flow::FlowResult compile_at(int jobs, const apps::Application& app,
                            const RunOptions& options = {},
                            const std::string& cache_dir = {}) {
    flow::FlowSession session(session_at(jobs, cache_dir));
    return compile(session, app, options);
}

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
        RunOptions options;
        options.mode = mode;

        const auto seq = compile_at(1, app, options);
        const auto par = compile_at(4, app, options);
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
    // Back-to-back runs through one session share its profile cache; the
    // second run (mostly cache hits) must still produce the identical
    // result.
    const apps::Application& app = apps::application_by_name("nbody");
    flow::FlowSession session(session_at(4));
    const auto first = compile(session, app);
    const auto second = compile(session, app);
    EXPECT_GT(session.profile_cache().stats().hits, 0u);
    expect_identical(first, second, "nbody repeat");
}

/// The standard flow run through FlowSession::run, which never consults
/// the flow-result tier: with a store configured, only the profile and
/// design-artifact tiers can serve it.
flow::FlowResult run_untiered(flow::FlowSession& session,
                              const apps::Application& app, flow::Mode mode) {
    flow::FlowContext ctx(app.name,
                          frontend::parse_module(app.source, app.name),
                          app.workload);
    ctx.allow_single_precision = app.allow_single_precision;
    return session.run(flow::standard_flow(mode), std::move(ctx));
}

flow::FlowResult run_untiered(const apps::Application& app, flow::Mode mode,
                              int jobs, const std::string& cache_dir = {}) {
    flow::FlowSession session(session_at(jobs, cache_dir));
    return run_untiered(session, app, mode);
}

TEST(EngineParallel, WarmDiskCacheIdenticalAcrossJobCounts) {
    // The cold/warm contract of the content-addressed store: a run against
    // an empty store, a run served from disk, and a warm parallel run must
    // all produce byte-identical FlowResults.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "psaflow-engine-warm-cache";
    fs::remove_all(root);

    const apps::Application& app = apps::application_by_name("nbody");
    const auto cold = compile_at(1, app, {}, root.string());

    // A fresh session has an empty in-memory tier, so the rerun can only
    // warm up from disk; run the flow itself: compile() would answer from
    // the flow-result tier.
    trace::Registry warm_registry;
    flow::FlowResult warm_seq;
    flow::FlowSession warm(session_at(1, root.string()));
    {
        trace::ScopedRegistry scope(warm_registry);
        warm_seq = run_untiered(warm, app, flow::Mode::Informed);
    }
    expect_identical(cold, warm_seq, "nbody cold vs warm jobs=1");
    EXPECT_GT(warm.profile_cache().stats().disk_hits, 0u);
    EXPECT_GT(warm_registry.counter("artifact_cache.hits"), 0u);

    const auto warm_par =
        run_untiered(app, flow::Mode::Informed, 4, root.string());
    expect_identical(cold, warm_par, "nbody cold vs warm jobs=4");

    // The flow-result tier answers at any jobs setting, identically.
    trace::Registry hit_registry;
    flow::FlowResult hit;
    {
        trace::ScopedRegistry scope(hit_registry);
        hit = compile_at(4, app, {}, root.string());
    }
    expect_identical(cold, hit, "nbody cold vs flow-result hit jobs=4");
    EXPECT_EQ(hit_registry.counter("flow_cache.hits"), 1u);

    std::error_code ec;
    fs::remove_all(root, ec);
}

// ---------------------------------------------------- flow-result tier ----

/// An empty store directory under the test temp dir, removed again on
/// destruction.
struct ScratchStore {
    std::filesystem::path root;

    explicit ScratchStore(const std::string& name)
        : root(std::filesystem::path(::testing::TempDir()) / name) {
        std::filesystem::remove_all(root);
    }
    ~ScratchStore() {
        std::error_code ec;
        std::filesystem::remove_all(root, ec);
    }

    /// compile() through a fresh session over this store with `jobs`
    /// workers, recording into `registry` only.
    flow::FlowResult compile_into(trace::Registry& registry,
                                  const apps::Application& app,
                                  const RunOptions& options = {},
                                  int jobs = 0) const {
        trace::ScopedRegistry scope(registry);
        return compile_at(jobs, app, options, root.string());
    }

    [[nodiscard]] std::set<std::filesystem::path> entries() const {
        std::set<std::filesystem::path> out;
        namespace fs = std::filesystem;
        for (const auto& e : fs::recursive_directory_iterator(root))
            if (e.path().extension() == ".cas") out.insert(e.path());
        return out;
    }
};

TEST(FlowResultTier, OffWithoutAStore) {
    trace::Registry registry;
    {
        trace::ScopedRegistry scope(registry);
        (void)compile_at(0, apps::application_by_name("adpredictor"));
    }
    EXPECT_EQ(registry.counter("flow_cache.hits"), 0u);
    EXPECT_EQ(registry.counter("flow_cache.misses"), 0u);
    EXPECT_EQ(registry.counter("flow.runs"), 1u);
    for (const trace::Span& span : registry.spans())
        EXPECT_NE(span.name, "flow_cache");
}

TEST(FlowResultTier, EveryInputTheFlowReadsIsInTheKey) {
    ScratchStore store("psaflow-flow-tier-key");
    const apps::Application& app = apps::application_by_name("adpredictor");
    const flow::DesignFlow standard = flow::standard_flow(flow::Mode::Informed);
    const flow::ManifestFlow manifest =
        flow::parse_manifest_text(json::dump(flow::to_manifest(standard)));
    const flow::ManifestFlow renamed =
        flow::parse_manifest_text(json::dump(flow::to_manifest(standard, "x")));
    apps::Application edited_source = app;
    edited_source.source += " ";
    apps::Application no_sp = app;
    no_sp.allow_single_precision = !app.allow_single_precision;

    struct Variant {
        std::string what;
        RunOptions options;
        const apps::Application* app;
    };
    const RunOptions base;
    std::vector<Variant> variants;
    const auto add = [&](std::string what, RunOptions options,
                         const apps::Application& compiled) {
        variants.push_back({std::move(what), options, &compiled});
    };
    add("base", base, app);
    RunOptions o = base;
    o.mode = flow::Mode::Uninformed;
    add("mode", o, app);
    o = base;
    o.intensity_threshold_x = 8.0;
    add("threshold_x", o, app);
    o = base;
    o.engine.budget.max_run_cost = 1e-3;
    add("budget", o, app);
    o = base;
    o.engine.cost_model.gpu_per_hour = 3.5;
    add("cost model", o, app);
    o = base;
    o.engine.max_feedback_iterations = 1;
    add("feedback cap", o, app);
    o = base;
    o.flow_manifest = &manifest;
    add("manifest", o, app);
    o.flow_manifest = &renamed;
    add("manifest text", o, app);
    add("source edit", base, edited_source);
    add("allow_single_precision", base, no_sp);

    // First pass: every variant misses; second pass: every variant hits
    // its own entry and returns the first pass's result.
    std::vector<flow::FlowResult> first;
    for (const Variant& v : variants) {
        SCOPED_TRACE(v.what);
        trace::Registry registry;
        first.push_back(store.compile_into(registry, *v.app, v.options, 1));
        EXPECT_EQ(registry.counter("flow_cache.misses"), 1u);
        EXPECT_EQ(registry.counter("flow_cache.hits"), 0u);
    }
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Variant& v = variants[i];
        trace::Registry registry;
        const auto again =
            store.compile_into(registry, *v.app, v.options, 1);
        EXPECT_EQ(registry.counter("flow_cache.hits"), 1u) << v.what;
        EXPECT_EQ(registry.counter("flow.runs"), 0u) << v.what;
        expect_identical(first[i], again, v.what + " miss vs hit");
    }

    // Results are identical at any jobs, so jobs is not in the key.
    trace::Registry registry;
    (void)store.compile_into(registry, app, base, 3);
    EXPECT_EQ(registry.counter("flow_cache.hits"), 1u);
}

TEST(FlowResultTier, AMissWritesOneEntryAndBadEntriesRecompute) {
    ScratchStore store("psaflow-flow-tier-repair");
    const apps::Application& app = apps::application_by_name("kmeans");
    // Fill the profile and design-artifact tiers only.
    const auto cold =
        run_untiered(app, flow::Mode::Informed, 1, store.root.string());
    const auto lower_tiers = store.entries();

    trace::Registry miss;
    expect_identical(cold, store.compile_into(miss, app), "first compile");
    EXPECT_EQ(miss.counter("flow_cache.misses"), 1u);
    EXPECT_EQ(miss.counter("cas.writes"), 1u); // the flow-result entry only
    std::vector<std::filesystem::path> added;
    for (const auto& path : store.entries())
        if (!lower_tiers.contains(path)) added.push_back(path);
    ASSERT_EQ(added.size(), 1u);
    const std::filesystem::path entry = added.front();
    // <root>/<top byte>/<low 56 bits>.cas
    const std::uint64_t key = std::stoull(
        entry.parent_path().filename().string() + entry.stem().string(),
        nullptr, 16);

    const auto expect_recomputed = [&](const std::string& what,
                                       std::uint64_t corrupt) {
        SCOPED_TRACE(what);
        trace::Registry registry;
        expect_identical(cold, store.compile_into(registry, app), what);
        EXPECT_EQ(registry.counter("flow_cache.misses"), 1u);
        EXPECT_EQ(registry.counter("flow.runs"), 1u);
        EXPECT_EQ(registry.counter("cas.corrupt"), corrupt);
        trace::Registry after;
        expect_identical(cold, store.compile_into(after, app),
                         what + ", repaired");
        EXPECT_EQ(after.counter("flow_cache.hits"), 1u);
    };

    // A flipped payload bit fails the store's checksum.
    {
        std::fstream file(entry, std::ios::in | std::ios::out |
                                     std::ios::binary | std::ios::ate);
        const auto size = static_cast<std::streamoff>(file.tellg());
        char byte = 0;
        file.seekg(size - 1);
        file.get(byte);
        file.seekp(size - 1);
        file.put(static_cast<char>(byte ^ 0x10));
    }
    expect_recomputed("bit flip", 1);

    // A well-framed entry of another payload version reads as a miss.
    {
        cas::CasStore direct(store.root);
        auto payload = direct.get_local(key);
        ASSERT_TRUE(payload.has_value());
        (*payload)[0] = static_cast<char>((*payload)[0] + 1);
        direct.put_local(key, *payload);
    }
    expect_recomputed("payload version", 0);
}

/// An in-process remote tier for a session's store: its hooks count every
/// fetch and publish and serve them from the store at `root` through
/// get_local/put_local, as the wire handlers do, recording into a registry
/// of their own (the upstream is another process). `fetch_override`, when
/// set, answers every fetch instead.
struct RemoteTier {
    ScratchStore upstream;
    cas::CasStore store;
    int fetches = 0;
    int publishes = 0;
    std::vector<std::uint64_t> published;
    std::optional<std::string> fetch_override;

    explicit RemoteTier(const std::string& name)
        : upstream(name), store(upstream.root) {}

    void attach(flow::FlowSession& session) {
        session.store()->set_remote(
            [this](std::uint64_t key) -> std::optional<std::string> {
                ++fetches;
                if (fetch_override.has_value()) return fetch_override;
                trace::Registry elsewhere;
                trace::ScopedRegistry scope(elsewhere);
                return store.get_local(key);
            },
            [this](std::uint64_t key, std::string_view payload) {
                ++publishes;
                published.push_back(key);
                trace::Registry elsewhere;
                trace::ScopedRegistry scope(elsewhere);
                store.put_local(key, payload);
                return true;
            });
    }
};

/// compile() through `session`, recording into `registry` only.
flow::FlowResult compile_in(flow::FlowSession& session,
                            trace::Registry& registry,
                            const apps::Application& app,
                            const RunOptions& options = {}) {
    trace::ScopedRegistry scope(registry);
    return compile(session, app, options);
}

TEST(FlowResultTier, ReadsThroughAndPublishesToTheRemoteTier) {
    // Every lower-tier entry is local to the first store, so the only
    // remote traffic is the flow-result tier's.
    RemoteTier remote("psaflow-flow-tier-upstream");
    ScratchStore first_root("psaflow-flow-tier-first");
    const apps::Application& app = apps::application_by_name("bezier");
    (void)run_untiered(app, flow::Mode::Uninformed, 1,
                       first_root.root.string());
    RunOptions uninformed;
    uninformed.mode = flow::Mode::Uninformed;

    // A local miss fetches once; the computed result is published once.
    flow::FlowSession first(session_at(0, first_root.root.string()));
    remote.attach(first);
    trace::Registry miss;
    const auto computed = compile_in(first, miss, app, uninformed);
    EXPECT_EQ(miss.counter("flow_cache.misses"), 1u);
    EXPECT_EQ(miss.counter("cas.remote_misses"), 1u);
    EXPECT_EQ(miss.counter("cas.remote_puts"), 1u);
    EXPECT_EQ(miss.counter("flow.runs"), 1u);
    EXPECT_EQ(remote.fetches, 1);
    ASSERT_EQ(remote.publishes, 1);
    const std::uint64_t key = remote.published.front();

    // A session over an empty store reads the entry through: no flow, no
    // interpreter run, written locally and not republished.
    ScratchStore second_root("psaflow-flow-tier-second");
    flow::FlowSession second(session_at(0, second_root.root.string()));
    remote.attach(second);
    trace::Registry hit;
    expect_identical(computed, compile_in(second, hit, app, uninformed),
                     "computed vs remote hit");
    EXPECT_EQ(hit.counter("flow_cache.hits"), 1u);
    EXPECT_EQ(hit.counter("cas.remote_hits"), 1u);
    EXPECT_EQ(hit.counter("flow.runs"), 0u);
    EXPECT_EQ(hit.counter("interp.runs"), 0u);
    for (const trace::Span& span : hit.spans())
        EXPECT_EQ(span.name, "flow_cache");
    EXPECT_EQ(remote.fetches, 2);
    EXPECT_EQ(remote.publishes, 1);
    EXPECT_TRUE(second.store()->get_local(key).has_value());

    // The written-through entry answers the next compile locally.
    trace::Registry local;
    (void)compile_in(second, local, app, uninformed);
    EXPECT_EQ(local.counter("flow_cache.hits"), 1u);
    EXPECT_EQ(remote.fetches, 2);
}

TEST(FlowResultTier, AMalformedRemoteEntryIsAMissAndIsReplaced) {
    RemoteTier remote("psaflow-flow-tier-bad-upstream");
    remote.fetch_override = std::string("not a flow result");
    ScratchStore root("psaflow-flow-tier-bad");
    const apps::Application& app = apps::application_by_name("kmeans");
    const auto cold =
        run_untiered(app, flow::Mode::Informed, 1, root.root.string());

    flow::FlowSession session(session_at(0, root.root.string()));
    remote.attach(session);
    trace::Registry registry;
    expect_identical(cold, compile_in(session, registry, app),
                     "malformed remote entry");
    EXPECT_EQ(registry.counter("cas.remote_hits"), 1u);
    EXPECT_EQ(registry.counter("flow_cache.misses"), 1u);
    EXPECT_EQ(registry.counter("flow.runs"), 1u);
    EXPECT_EQ(remote.fetches, 1);
    ASSERT_EQ(remote.publishes, 1);

    // The run's entry replaced the bad one, locally and upstream.
    const std::uint64_t key = remote.published.front();
    for (cas::CasStore* store : {session.store(), &remote.store}) {
        const auto payload = store->get_local(key);
        ASSERT_TRUE(payload.has_value());
        flow::FlowResult stored;
        ASSERT_TRUE(flow::parse_flow_result(*payload, stored));
        expect_identical(cold, stored, "replaced entry");
    }
    trace::Registry again;
    (void)compile_in(session, again, app);
    EXPECT_EQ(again.counter("flow_cache.hits"), 1u);
    EXPECT_EQ(remote.fetches, 1);
}

TEST(FlowResultTier, PayloadRoundTripsAndRejectsDamage) {
    const auto result = run_untiered(apps::application_by_name("nbody"),
                                     flow::Mode::Uninformed, 1);
    const std::string payload = flow::serialize_flow_result(result);
    flow::FlowResult parsed;
    ASSERT_TRUE(flow::parse_flow_result(payload, parsed));
    expect_identical(result, parsed, "round trip");
    EXPECT_EQ(flow::serialize_flow_result(parsed), payload);
    for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                  payload.size() / 2, payload.size() - 1}) {
        flow::FlowResult truncated;
        EXPECT_FALSE(flow::parse_flow_result(payload.substr(0, cut),
                                             truncated))
            << cut;
    }
    flow::FlowResult trailing;
    EXPECT_FALSE(flow::parse_flow_result(payload + "x", trailing));
}

// ------------------------------------------------------- profile cache -----

TEST(ProfileCacheTest, SecondIdenticalRunHits) {
    auto [mod, types] = parse_and_check(kSmallApp);
    ProfileCache cache;
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
    ProfileCache cache;
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
    ProfileCache cache;
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
    return analysis::profile_run(nullptr, module, types, w.entry,
                                 w.make_args(1.0), focused_on_app());
}

TEST(ProfileCacheTest, PragmaOnlyEditHitsInMemory) {
    auto [mod, types] = parse_and_check(kSmallApp);
    ProfileCache cache;
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
    cas::CasStore store(root);

    auto [mod, types] = parse_and_check(kSmallApp);
    ProfileCache cache(&store);
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
    ProfileCache cache;
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
    ProfileCache cache;
    const analysis::Workload w = small_workload();

    (void)cache.run(*mod, types, w.entry, w.make_args(1.0));
    (void)cache.run(*mod, types, w.entry, w.make_args(2.0));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ProfileCacheTest, DisabledCacheNeverHits) {
    // A session with its profile cache off runs every profile: the forked
    // uninformed paths re-characterise without a single hit, and the
    // designs do not change.
    const apps::Application& app = apps::application_by_name("nbody");
    RunOptions uninformed;
    uninformed.mode = flow::Mode::Uninformed;
    flow::SessionOptions off = session_at(1);
    off.profile_cache = false;
    flow::FlowSession session(off);
    trace::Registry registry;
    flow::FlowResult result;
    {
        trace::ScopedRegistry scope(registry);
        result = compile(session, app, uninformed);
    }
    EXPECT_EQ(registry.counter("profile_cache.hits"), 0u);
    EXPECT_EQ(registry.counter("profile_cache.misses"), 0u);
    EXPECT_EQ(session.profile_cache().stats().misses, 0u);
    EXPECT_GT(registry.counter("interp.runs"), 5u);
    expect_identical(compile_at(1, app, uninformed), result, "cache off");
}

// ---------------------------------------------------------------- trace ----

TEST(TraceIntegration, BranchedFlowEmitsSpansAndCacheHits) {
    auto& registry = trace::Registry::global();
    registry.set_enabled(true);
    registry.clear();

    RunOptions options;
    options.mode = flow::Mode::Uninformed; // 5 designs: branched flow
    const auto result =
        compile_at(4, apps::application_by_name("nbody"), options);
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
    // e.g. a key that sees pragmas again. The extracted kernel's
    // profile-scale run is not among them: the hotspot run's focus region
    // stands in for it. The charged steps and cost units of those runs are
    // pinned too: a lowering or dispatch change that adds, drops or
    // reweighs a single charge fails here.
    struct Counts {
        std::uint64_t runs;
        std::uint64_t steps;
        std::uint64_t cost_units;
    };
    struct Expected {
        const char* app;
        Counts informed;
        Counts uninformed;
    };
    const Expected table[] = {
        {"nbody", {4, 3144502, 4304572}, {4, 3144502, 4304572}},
        {"adpredictor", {4, 612111, 1203548}, {6, 927767, 1819534}},
        {"kmeans", {2, 3837403, 4788322}, {4, 7674811, 9576684}},
        {"rushlarsen", {2, 6816229, 15408818}, {2, 6816229, 15408818}},
        {"bezier", {2, 3034249, 6068524}, {2, 3034249, 6068524}}};
    for (const Expected& row : table) {
        for (flow::Mode mode : {flow::Mode::Informed, flow::Mode::Uninformed}) {
            const bool informed = mode == flow::Mode::Informed;
            SCOPED_TRACE(std::string(row.app) +
                         (informed ? "/informed" : "/uninformed"));
            trace::Registry registry;
            registry.set_enabled(true);
            {
                trace::ScopedRegistry install(registry);
                RunOptions options;
                options.mode = mode;
                (void)compile_at(1, apps::application_by_name(row.app),
                                 options);
            }
            const Counts& want = informed ? row.informed : row.uninformed;
            const std::uint64_t runs = registry.counter("interp.runs");
            EXPECT_EQ(runs, want.runs);
            EXPECT_EQ(registry.counter("interp.steps"), want.steps);
            EXPECT_EQ(registry.counter("interp.cost_units"), want.cost_units);

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
}

TEST(TraceIntegration, ParallelFlowKeepsASingleRootedSpanTree) {
    // Pool workers adopt the submitter's sink and active span, so even a
    // jobs=4 branched flow must trace as one tree: a single root, every
    // other span's parent resolving to a recorded span, and no cycles.
    trace::Registry registry;
    registry.set_enabled(true);

    {
        trace::ScopedRegistry install(registry);
        RunOptions options;
        options.mode = flow::Mode::Uninformed;
        const auto result =
            compile_at(4, apps::application_by_name("nbody"), options);
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
