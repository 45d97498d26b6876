// Flow-manifest tests: exact located diagnostics, export round-trips,
// strategy lowering, the manifest-file loader and execution identity
// against the programmatic standard flow.
#include <gtest/gtest.h>

#include <fstream>

#include "flow/learned_strategy.hpp"
#include "flow/manifest.hpp"
#include "flow/session.hpp"
#include "flow/standard_flow.hpp"
#include "flow/strategy.hpp"
#include "flow/task_registry.hpp"
#include "frontend/parser.hpp"
#include "interp/value.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace psaflow {
namespace {

using namespace psaflow::flow;

// ------------------------------------------------------------ diagnostics ----

/// Expect parse_manifest_text(text) to throw exactly `message`.
void expect_rejected(const std::string& text, const std::string& message) {
    try {
        (void)parse_manifest_text(text);
        FAIL() << "accepted invalid manifest: " << text;
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), message) << text;
    }
}

TEST(Manifest, RejectsEverySchemaViolationWithALocatedDiagnostic) {
    struct Case {
        const char* name;
        const char* text;
        const char* message;
    };
    const Case table[] = {
        {"not an object", R"([1,2])",
         "flow manifest: $: manifest must be a JSON object"},
        {"missing version", R"({"prologue":[]})",
         "flow manifest: $: missing required \"psaflow_manifest\" version "
         "field"},
        {"unsupported version", R"({"psaflow_manifest":2})",
         "flow manifest: $.psaflow_manifest: unsupported manifest version "
         "2 (this build supports 1)"},
        {"unknown top-level field",
         R"({"psaflow_manifest":1,"frobnicate":true})",
         "flow manifest: $: unknown field \"frobnicate\""},
        {"unknown task id",
         R"({"psaflow_manifest":1,"prologue":["no-such-task"]})",
         "flow manifest: $.prologue[0]: unknown task id 'no-such-task'"},
        {"non-string task id",
         R"({"psaflow_manifest":1,"prologue":[7]})",
         "flow manifest: $.prologue[0]: task id must be a string"},
        {"unknown task in a nested path",
         R"({"psaflow_manifest":1,"branch":{"name":"A","paths":[
             {"name":"cpu","tasks":["bogus-task"]}]}})",
         "flow manifest: $.branch.paths[0].tasks[0]: unknown task id "
         "'bogus-task'"},
        {"unknown strategy",
         R"({"psaflow_manifest":1,"branch":{"name":"A","strategy":"greedy",
             "paths":[{"name":"cpu"}]}})",
         "flow manifest: $.branch.strategy: unknown strategy 'greedy' "
         "(known: fixed-path, informed, learned, select-all)"},
        {"fixed-path without paths",
         R"({"psaflow_manifest":1,"branch":{"name":"A",
             "strategy":{"name":"fixed-path"},
             "paths":[{"name":"cpu"}]}})",
         "flow manifest: $.branch.strategy.paths: fixed-path needs a "
         "\"paths\" array naming at least one path"},
        {"fixed-path naming an unknown path",
         R"({"psaflow_manifest":1,"branch":{"name":"A",
             "strategy":{"name":"fixed-path","paths":["gpu"]},
             "paths":[{"name":"cpu"}]}})",
         "flow manifest: $.branch.strategy.paths[0]: fixed-path names "
         "unknown path 'gpu' of branch 'A'"},
        {"learned with a bad k",
         R"({"psaflow_manifest":1,"branch":{"name":"A",
             "strategy":{"name":"learned","k":0},
             "paths":[{"name":"cpu"}]}})",
         "flow manifest: $.branch.strategy.k: must be an integer >= 1"},
        {"learned with an unknown training app",
         R"({"psaflow_manifest":1,"branch":{"name":"A",
             "strategy":{"name":"learned","train_apps":["voyager"]},
             "paths":[{"name":"cpu"}]}})",
         "flow manifest: $.branch.strategy.train_apps[0]: unknown "
         "application 'voyager'"},
        {"branch without a name",
         R"({"psaflow_manifest":1,"branch":{"paths":[{"name":"cpu"}]}})",
         "flow manifest: $.branch: missing required \"name\""},
        {"branch without paths",
         R"({"psaflow_manifest":1,"branch":{"name":"A"}})",
         "flow manifest: $.branch.paths: a branch needs at least one path"},
        {"duplicate path name",
         R"({"psaflow_manifest":1,"branch":{"name":"A",
             "paths":[{"name":"cpu"},{"name":"cpu"}]}})",
         "flow manifest: $.branch.paths[1]: duplicate path name 'cpu'"},
        {"unknown branch reference",
         R"({"psaflow_manifest":1,"branch":"dev"})",
         "flow manifest: $.branch: unknown branch reference 'dev' (no such "
         "entry in \"branches\")"},
        {"circular branch reference",
         R"({"psaflow_manifest":1,
             "branches":{"loop":{"name":"L",
                                 "paths":[{"name":"p","branch":"loop"}]}},
             "branch":"loop"})",
         "flow manifest: $.branches.loop.paths[0].branch: circular branch "
         "reference 'loop'"},
        {"negative budget",
         R"({"psaflow_manifest":1,"budget":{"max_run_cost":-1}})",
         "flow manifest: $.budget.max_run_cost: must be a non-negative "
         "number"},
        {"budget of the wrong shape",
         R"({"psaflow_manifest":1,"budget":3})",
         "flow manifest: $.budget: must be an object with "
         "\"max_run_cost\""},
        {"non-positive threshold",
         R"({"psaflow_manifest":1,"threshold_x":0})",
         "flow manifest: $.threshold_x: must be a positive number"},
        {"fractional feedback cap",
         R"({"psaflow_manifest":1,"max_feedback_iterations":1.5})",
         "flow manifest: $.max_feedback_iterations: must be a non-negative "
         "integer"},
    };
    for (const Case& c : table) {
        SCOPED_TRACE(c.name);
        expect_rejected(c.text, c.message);
    }
}

TEST(Manifest, RejectsDuplicateNamedBranchDefinitions) {
    // json::parse keeps duplicate keys in member order, so build the
    // document programmatically to make the duplication explicit.
    json::Value def = json::Value::object();
    def.set("name", json::Value::string("D"));
    json::Value path = json::Value::object();
    path.set("name", json::Value::string("p"));
    json::Value paths = json::Value::array();
    paths.push(std::move(path));
    def.set("paths", std::move(paths));

    json::Value defs = json::Value::object();
    defs.members.emplace_back("dev", def);
    defs.members.emplace_back("dev", def);

    json::Value doc = json::Value::object();
    doc.set("psaflow_manifest", json::Value::number(1.0));
    doc.set("branches", std::move(defs));
    try {
        (void)from_manifest(doc);
        FAIL() << "accepted duplicate branch definitions";
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "flow manifest: $.branches: duplicate branch name 'dev'");
    }
}

TEST(Manifest, JsonSyntaxErrorsAreWrappedAndFilesCarryTheirPath) {
    EXPECT_THROW((void)parse_manifest_text("{nope"), Error);
    try {
        (void)read_manifest_file("/nonexistent/manifest.json");
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "flow manifest: cannot read '/nonexistent/manifest.json'");
    }
}

// ----------------------------------------------------------------- export ----

TEST(Manifest, StandardFlowExportRoundTripsByteStably) {
    for (const Mode mode : {Mode::Informed, Mode::Uninformed}) {
        const json::Value exported = to_manifest(standard_flow(mode));
        const ManifestFlow lowered = from_manifest(exported);
        EXPECT_EQ(json::dump(to_manifest(lowered.flow)),
                  json::dump(exported));
    }
}

TEST(Manifest, StandardFlowExportSpellsTheFig4Flow) {
    const json::Value doc = to_manifest(standard_flow(Mode::Informed));
    const json::Value* prologue = doc.find("prologue");
    ASSERT_NE(prologue, nullptr);
    ASSERT_FALSE(prologue->elements.empty());
    EXPECT_EQ(prologue->elements.front().string_value,
              "identify-hotspot-loops");

    const json::Value* branch = doc.find("branch");
    ASSERT_NE(branch, nullptr);
    EXPECT_EQ(branch->find("name")->string_value, "A (target)");
    EXPECT_EQ(branch->find("strategy")->string_value, "informed");
    EXPECT_EQ(branch->find("paths")->elements.size(), 3u);

    // Every exported task id re-resolves through the registry.
    for (const json::Value& id : prologue->elements)
        EXPECT_TRUE(TaskRegistry::global().contains(id.string_value));
}

TEST(Manifest, UnexportableStrategiesAreAnExplicitError) {
    std::vector<TrainingExample> examples(1);
    examples.front().label = "cpu";
    DesignFlow flow;
    flow.branch = std::make_shared<BranchPoint>();
    flow.branch->name = "A";
    flow.branch->strategy =
        std::make_shared<LearnedStrategy>(std::move(examples));
    flow.branch->paths.push_back(FlowPath{"cpu", {}, nullptr});
    EXPECT_THROW((void)to_manifest(flow), Error);
}

// ------------------------------------------------------------- parameters ----

TEST(Manifest, EngineParametersLowerToOptionals) {
    const ManifestFlow bare =
        parse_manifest_text(R"({"psaflow_manifest":1})");
    EXPECT_FALSE(bare.max_run_cost.has_value());
    EXPECT_FALSE(bare.threshold_x.has_value());
    EXPECT_FALSE(bare.max_feedback_iterations.has_value());
    EXPECT_TRUE(bare.name.empty());

    const ManifestFlow full = parse_manifest_text(
        R"({"psaflow_manifest":1,"name":"tuned",
            "budget":{"max_run_cost":0.001},"threshold_x":2.5,
            "max_feedback_iterations":0})");
    EXPECT_EQ(full.name, "tuned");
    ASSERT_TRUE(full.max_run_cost.has_value());
    EXPECT_DOUBLE_EQ(*full.max_run_cost, 0.001);
    ASSERT_TRUE(full.threshold_x.has_value());
    EXPECT_DOUBLE_EQ(*full.threshold_x, 2.5);
    ASSERT_TRUE(full.max_feedback_iterations.has_value());
    EXPECT_EQ(*full.max_feedback_iterations, 0);
}

TEST(Manifest, NamedBranchDefinitionsResolveAndMayBeShared) {
    const ManifestFlow lowered = parse_manifest_text(
        R"({"psaflow_manifest":1,
            "branches":{"dev":{"name":"D","paths":[{"name":"a"}]}},
            "branch":{"name":"A","paths":[
                {"name":"one","branch":"dev"},
                {"name":"two","branch":"dev"}]}})");
    ASSERT_NE(lowered.flow.branch, nullptr);
    ASSERT_EQ(lowered.flow.branch->paths.size(), 2u);
    for (const FlowPath& path : lowered.flow.branch->paths) {
        ASSERT_NE(path.next, nullptr);
        EXPECT_EQ(path.next->name, "D");
    }
}

// ---------------------------------------------------------- manifest file ----

/// Write `text` to a file under the test temp dir and return its path.
std::string write_manifest(const std::string& name, const std::string& text) {
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream file(path);
    file << text;
    return path;
}

TEST(ManifestFile, InlineAndFileSpellingsLoadOneDocument) {
    const std::string text =
        R"({"psaflow_manifest":1,"name":"mine",
            "prologue":["identify-hotspot-loops"]})";
    const ManifestFlow file_flow = read_manifest_file(
        write_manifest("psaflow-test-manifest-inline.json", text));
    const ManifestFlow inline_flow = parse_manifest_text(text);
    EXPECT_EQ(file_flow.name, "mine");
    EXPECT_EQ(file_flow.flow.prologue.size(), 1u);
    EXPECT_EQ(file_flow.canonical, inline_flow.canonical);
}

TEST(ManifestFile, ViolationsAndUnreadablePathsThrowLocated) {
    const auto message = [](const std::string& path) -> std::string {
        try {
            (void)read_manifest_file(path);
        } catch (const Error& e) {
            return e.what();
        }
        return "accepted";
    };
    const std::string bad = write_manifest(
        "psaflow-test-manifest-bad.json",
        R"({"psaflow_manifest":1,"prologue":["nope"]})");
    EXPECT_EQ(message(bad),
              "flow manifest: $.prologue[0]: unknown task id 'nope' [" + bad +
                  "]");
    const std::string syntax =
        write_manifest("psaflow-test-manifest-syntax.json", "{nope");
    const std::string got = message(syntax);
    EXPECT_EQ(got.rfind("flow manifest: ", 0), 0u) << got;
    EXPECT_TRUE(got.ends_with(" [" + syntax + "]")) << got;
    const std::string missing = testing::TempDir() + "/psaflow-no-such.json";
    EXPECT_EQ(message(missing),
              "flow manifest: cannot read '" + missing + "'");
}

// -------------------------------------------------------------- execution ----

interp::Arg integer(long long v) { return interp::Value::of_int(v); }

// The Fig. 3 GPU profile: parallel outer loop over an inner reduction.
const char* kGpuish = R"(
void work(int n, double* a, double* out) {
    for (int i = 0; i < n; i = i + 1) {
        double acc = 0.0;
        for (int j = 0; j < n; j = j + 1) {
            acc += exp(a[j] * 0.001) * a[i];
        }
        out[i] = acc;
    }
}

void run(int n, double* a, double* out) {
    work(n, a, out);
}
)";

analysis::Workload gpuish_workload() {
    analysis::Workload w;
    w.entry = "run";
    w.eval_scale = 256.0;
    w.make_args = [](double scale) {
        const int n = static_cast<int>(32 * scale);
        auto a = std::make_shared<interp::Buffer>(
            ast::Type::Double, static_cast<std::size_t>(n), "a");
        auto out = std::make_shared<interp::Buffer>(
            ast::Type::Double, static_cast<std::size_t>(n), "out");
        for (int i = 0; i < n; ++i) a->store(i, 0.5 + 0.001 * i);
        return std::vector<interp::Arg>{integer(n), a, out};
    };
    return w;
}

FlowContext gpuish_ctx() {
    return FlowContext("manifest-test",
                       frontend::parse_module(kGpuish, "manifest-test"),
                       gpuish_workload());
}

TEST(FixedPath, SelectsNamedPathsInCanonicalBranchOrder) {
    BranchPoint branch;
    branch.name = "A";
    branch.paths.push_back(FlowPath{"cpu", {}, nullptr});
    branch.paths.push_back(FlowPath{"gpu", {}, nullptr});
    branch.paths.push_back(FlowPath{"fpga", {}, nullptr});

    FlowContext ctx = gpuish_ctx();
    const auto strategy = fixed_path_strategy({"fpga", "cpu", "cpu"});
    EXPECT_EQ(strategy->name(), "fixed-path");
    // Duplicates collapse; selection order is branch order, not spelling
    // order.
    EXPECT_EQ(strategy->select(ctx, branch),
              (std::vector<std::size_t>{0, 2}));
}

TEST(FixedPath, UnknownPathNameThrowsAtSelection) {
    BranchPoint branch;
    branch.name = "A";
    branch.paths.push_back(FlowPath{"cpu", {}, nullptr});
    FlowContext ctx = gpuish_ctx();
    const auto strategy = fixed_path_strategy({"tpu"});
    EXPECT_THROW((void)strategy->select(ctx, branch), Error);
    EXPECT_THROW((void)fixed_path_strategy({}), Error);
}

TEST(Manifest, LoweredStandardFlowRunsIdenticallyToTheProgrammaticOne) {
    const FlowResult direct =
        FlowSession().run(standard_flow(Mode::Informed), gpuish_ctx());

    const ManifestFlow lowered =
        from_manifest(to_manifest(standard_flow(Mode::Informed)));
    const FlowResult via_manifest =
        FlowSession().run(lowered.flow, gpuish_ctx());

    EXPECT_EQ(via_manifest.reference_seconds, direct.reference_seconds);
    EXPECT_EQ(via_manifest.log, direct.log);
    ASSERT_EQ(via_manifest.designs.size(), direct.designs.size());
    for (std::size_t i = 0; i < direct.designs.size(); ++i) {
        const DesignArtifact& a = direct.designs[i];
        const DesignArtifact& b = via_manifest.designs[i];
        EXPECT_EQ(b.name(), a.name());
        EXPECT_EQ(b.source, a.source);
        EXPECT_EQ(b.speedup, a.speedup);
        EXPECT_EQ(b.log, a.log);
    }
}

TEST(Manifest, FixedPathFlowRunsOnlyTheNamedFamily) {
    const ManifestFlow lowered = parse_manifest_text(
        R"json({"psaflow_manifest":1,
            "prologue":["identify-hotspot-loops","hotspot-loop-extraction",
                        "pointer-analysis","arithmetic-intensity-analysis",
                        "data-in-out-analysis","loop-dependence-analysis",
                        "loop-trip-count-analysis","remove-array-dependency"],
            "branch":{"name":"A (target)",
                      "strategy":{"name":"fixed-path","paths":["cpu"]},
                      "paths":[{"name":"cpu",
                                "tasks":["multi-thread-parallel-loops",
                                         "omp-num-threads-dse"]}]}})json");
    const FlowResult result =
        FlowSession().run(lowered.flow, gpuish_ctx());
    ASSERT_FALSE(result.designs.empty());
    for (const DesignArtifact& design : result.designs)
        EXPECT_EQ(design.spec.target, codegen::TargetKind::CpuOpenMp);
}

} // namespace
} // namespace psaflow
