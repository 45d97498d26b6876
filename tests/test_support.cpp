#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace psaflow {
namespace {

TEST(StringUtil, SplitKeepsEmptyFields) {
    auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, SplitSingleField) {
    auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, TrimBothEnds) {
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim(""), "");
}

TEST(StringUtil, JoinWithSeparator) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringUtil, CountLocSkipsBlankLines) {
    EXPECT_EQ(count_loc("a\n\n  \nb\n"), 2);
    EXPECT_EQ(count_loc(""), 0);
    EXPECT_EQ(count_loc("single"), 1);
}

TEST(StringUtil, IndentLines) {
    EXPECT_EQ(indent_lines("a\nb", 2), "  a\n  b");
    EXPECT_EQ(indent_lines("a\n\nb", 2), "  a\n\n  b");
}

TEST(StringUtil, FormatCompact) {
    EXPECT_EQ(format_compact(751.0), "751");
    EXPECT_EQ(format_compact(1.5), "1.5");
    EXPECT_EQ(format_compact(0.25), "0.25");
}

TEST(StringUtil, StartsEndsWith) {
    EXPECT_TRUE(starts_with("omp parallel", "omp"));
    EXPECT_FALSE(starts_with("om", "omp"));
    EXPECT_TRUE(ends_with("file.cpp", ".cpp"));
    EXPECT_FALSE(ends_with("cpp", "file.cpp"));
}

TEST(StringUtil, ReplaceAll) {
    EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
    EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
    EXPECT_EQ(replace_all("x", "", "y"), "x");
}

TEST(Table, AlignsColumns) {
    TablePrinter t({"App", "Speedup"});
    t.add_row({"N-Body", "751x"});
    t.add_row({"K", "30x"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("| App    |"), std::string::npos);
    EXPECT_NE(s.find("| N-Body | 751x"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ShortRowsPad) {
    TablePrinter t({"a", "b", "c"});
    t.add_row({"1"});
    EXPECT_NE(t.to_string().find("| 1 |"), std::string::npos);
}

TEST(Csv, EscapesSpecialCells) {
    CsvWriter w({"name", "value"});
    w.add_row({"with,comma", "with\"quote"});
    const std::string s = w.to_string();
    EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Prng, DeterministicSequences) {
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, DoublesInUnitInterval) {
    SplitMix64 g(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = g.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Prng, UniformRespectsRange) {
    SplitMix64 g(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = g.uniform(-2.0, 3.0);
        EXPECT_GE(d, -2.0);
        EXPECT_LT(d, 3.0);
    }
}

TEST(Prng, NextBelowZeroReturnsZero) {
    SplitMix64 g(1);
    EXPECT_EQ(g.next_below(0), 0u);
    // The n == 0 guard must not consume a draw: the sequence continues as
    // if the call never happened.
    SplitMix64 h(1);
    EXPECT_EQ(g.next_u64(), h.next_u64());
}

TEST(Prng, NextBelowStaysInRange) {
    SplitMix64 g(3);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(g.next_below(7), 7u);
    EXPECT_EQ(g.next_below(1), 0u);
}

TEST(StringUtil, ParseDoubleAcceptsValidNumbers) {
    EXPECT_EQ(parse_double("1.5"), 1.5);
    EXPECT_EQ(parse_double("  -3e2 "), -300.0);
    EXPECT_EQ(parse_double("0"), 0.0);
}

TEST(StringUtil, ParseDoubleRejectsGarbage) {
    EXPECT_FALSE(parse_double("abc").has_value());
    EXPECT_FALSE(parse_double("1.5x").has_value());
    EXPECT_FALSE(parse_double("").has_value());
    EXPECT_FALSE(parse_double("  ").has_value());
    EXPECT_FALSE(parse_double("nan").has_value());
    EXPECT_FALSE(parse_double("inf").has_value());
    EXPECT_FALSE(parse_double("1e9999").has_value());
}

TEST(StringUtil, ParseIntAcceptsAndRejects) {
    EXPECT_EQ(parse_int("42"), 42);
    EXPECT_EQ(parse_int(" -7 "), -7);
    EXPECT_FALSE(parse_int("4.2").has_value());
    EXPECT_FALSE(parse_int("x").has_value());
    EXPECT_FALSE(parse_int("").has_value());
    EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
}

TEST(ThreadPool, DefaultJobsRespectsEnv) {
    // The pool's own default is the hardware; PSAFLOW_JOBS reaches a
    // session through the tools' environment reader, clamped to 1..256.
    EXPECT_GE(ThreadPool::default_jobs(), 1);
    const char* saved = std::getenv("PSAFLOW_JOBS");
    const std::string restore = saved != nullptr ? saved : "";
    ::setenv("PSAFLOW_JOBS", "3", 1);
    EXPECT_EQ(cli::load_environment().jobs, 3);
    ::setenv("PSAFLOW_JOBS", "1000", 1);
    EXPECT_EQ(cli::load_environment().jobs, 256);
    ::setenv("PSAFLOW_JOBS", "0", 1);
    EXPECT_EQ(cli::load_environment().jobs, 0);
    ::unsetenv("PSAFLOW_JOBS");
    EXPECT_EQ(cli::load_environment().jobs, 0);
    if (saved != nullptr) ::setenv("PSAFLOW_JOBS", restore.c_str(), 1);
}

TEST(Environment, SinksTakeTheirVariables) {
    auto& registry = trace::Registry::global();
    const bool was_enabled = registry.enabled();
    ::setenv("PSAFLOW_TRACE", "0", 1);
    ::setenv("PSAFLOW_SLO_MS", "250", 1);
    ::setenv("PSAFLOW_FLIGHT_CAPACITY", "8", 1);
    const cli::Environment env = cli::load_environment();
    EXPECT_FALSE(registry.enabled());
    EXPECT_EQ(env.slo_ms, 250);
    EXPECT_EQ(env.flight_capacity, 8u);
    ::unsetenv("PSAFLOW_TRACE");
    ::unsetenv("PSAFLOW_SLO_MS");
    ::unsetenv("PSAFLOW_FLIGHT_CAPACITY");
    registry.set_enabled(was_enabled);
    const cli::Environment unset = cli::load_environment();
    EXPECT_EQ(unset.slo_ms, 0);
    EXPECT_EQ(unset.flight_capacity, 256u);
}

TEST(ThreadPool, TaskGroupRunsAllJobs) {
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    TaskGroup group(pool);
    for (int i = 1; i <= 100; ++i)
        group.run([&sum, i] { sum.fetch_add(i); });
    group.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, NestedGroupsDoNotDeadlock) {
    // A single-worker pool forces the outer wait() to help execute the
    // inner jobs — the deadlock scenario for a naive blocking join.
    ThreadPool pool(1);
    std::atomic<int> leaves{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 4; ++i) {
        outer.run([&pool, &leaves] {
            TaskGroup inner(pool);
            for (int j = 0; j < 4; ++j)
                inner.run([&leaves] { leaves.fetch_add(1); });
            inner.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(leaves.load(), 16);
}

TEST(ThreadPool, WaitRethrowsFirstSubmittedException) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.run([] { throw std::runtime_error("first"); });
    group.run([] { throw std::runtime_error("second"); });
    try {
        group.wait();
        FAIL() << "wait() must rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(Trace, CountersAccumulate) {
    auto& reg = trace::Registry::global();
    reg.clear();
    reg.count("unit.test", 2);
    reg.count("unit.test", 3);
    EXPECT_EQ(reg.counter("unit.test"), 5u);
    EXPECT_EQ(reg.counter("never.touched"), 0u);
}

TEST(Trace, SpansRecordWhenEnabled) {
    auto& reg = trace::Registry::global();
    reg.set_enabled(true);
    reg.clear();
    {
        trace::ScopedSpan span("unit:span", "test");
        span.set_work_units(12.0);
    }
    const auto spans = reg.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "unit:span");
    EXPECT_EQ(spans[0].category, "test");
    EXPECT_EQ(spans[0].work_units, 12.0);
}

TEST(Trace, DisabledSuppressesSpansNotCounters) {
    auto& reg = trace::Registry::global();
    reg.clear();
    reg.set_enabled(false);
    {
        trace::ScopedSpan span("unit:hidden", "test");
    }
    reg.count("still.counted", 1);
    EXPECT_TRUE(reg.spans().empty());
    EXPECT_EQ(reg.counter("still.counted"), 1u);
    reg.set_enabled(true);
}

TEST(Trace, JsonHasSchemaAndEscapes) {
    auto& reg = trace::Registry::global();
    reg.set_enabled(true);
    reg.clear();
    {
        trace::ScopedSpan span("quote\"back\\slash", "test");
    }
    reg.count("c", 7);
    const std::string json = reg.to_json();
    EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("\"c\": 7"), std::string::npos);
}

TEST(Trace, NestedSpansLinkChildToParent) {
    trace::Registry reg;
    trace::ScopedRegistry scope(reg);
    {
        trace::ScopedSpan outer("outer", "test");
        ASSERT_NE(outer.id(), 0u);
        EXPECT_EQ(trace::current_span_id(), outer.id());
        {
            trace::ScopedSpan inner("inner", "test");
            EXPECT_EQ(trace::current_span_id(), inner.id());
        }
        // The active span pops back to the outer one.
        EXPECT_EQ(trace::current_span_id(), outer.id());
    }
    EXPECT_EQ(trace::current_span_id(), 0u);

    const auto spans = reg.spans();
    ASSERT_EQ(spans.size(), 2u);
    const auto& inner = spans[0]; // closes (and records) first
    const auto& outer = spans[1];
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.parent, 0u);
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_NE(inner.id, outer.id);
}

TEST(Trace, PoolJobsInheritTheSubmittersSinkAndActiveSpan) {
    trace::Registry reg;
    trace::ScopedRegistry scope(reg);
    ThreadPool pool(3);
    std::uint64_t root_id = 0;
    {
        trace::ScopedSpan root("root", "test");
        root_id = root.id();
        TaskGroup group(pool);
        for (int i = 0; i < 8; ++i)
            group.run([i] {
                trace::ScopedSpan job("job-" + std::to_string(i), "test");
            });
        group.wait();
    }
    const auto spans = reg.spans();
    ASSERT_EQ(spans.size(), 9u);
    for (const auto& span : spans) {
        if (span.name == "root") {
            EXPECT_EQ(span.parent, 0u);
        } else {
            // Every pool job parents under the span that forked it, even
            // though it ran on another thread into the same private sink.
            EXPECT_EQ(span.parent, root_id) << span.name;
        }
    }
}

TEST(Trace, MergeRemapsThreadOrdinalsAndKeepsParentLinks) {
    trace::Registry target;
    {
        trace::ScopedRegistry scope(target);
        trace::ScopedSpan span("local", "test");
    }
    ASSERT_EQ(target.spans().size(), 1u);
    const std::uint64_t local_thread = target.spans()[0].thread;

    // A second registry that recorded unrelated work from thread ordinals
    // that collide with the target's.
    trace::Registry other;
    std::uint64_t other_root = 0;
    {
        trace::ScopedRegistry scope(other);
        trace::ScopedSpan root("merged-root", "test");
        other_root = root.id();
        trace::ScopedSpan child("merged-child", "test");
    }

    target.merge_from(other);
    const auto spans = target.spans();
    ASSERT_EQ(spans.size(), 3u);
    std::uint64_t merged_root_id = 0;
    for (const auto& span : spans) {
        if (span.name == "local") continue;
        // Merged spans land on fresh track ordinals so a rendered trace
        // cannot interleave the two registries' unrelated work.
        EXPECT_NE(span.thread, local_thread) << span.name;
        if (span.name == "merged-root") merged_root_id = span.id;
    }
    EXPECT_EQ(merged_root_id, other_root); // ids are process-unique: no remap
    for (const auto& span : spans) {
        if (span.name == "merged-child") {
            EXPECT_EQ(span.parent, merged_root_id);
        }
    }
}

TEST(Trace, WireSpanIdsAreSaltedDistinctAndJsonExact) {
    const std::uint64_t a = trace::wire_span_id();
    const std::uint64_t b = trace::wire_span_id();
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, b);
    // Below 2^53: survives a JSON double round-trip exactly.
    EXPECT_LT(a, std::uint64_t{1} << 53);
    // Marker bit keeps wire ids disjoint from sequential in-process ids.
    EXPECT_NE(a & (std::uint64_t{1} << 52), 0u);
    // Same process salt: consecutive calls are consecutive in the 52-bit
    // sequence.
    EXPECT_EQ((b - a) & ((std::uint64_t{1} << 52) - 1), 1u);
}

TEST(Trace, WireSpanIdsDoNotRepeatPastTwentyBitsOfSequence) {
    // A long-running daemon mints millions of hop spans; ids must stay
    // distinct well past the 2^20 a narrow sequence field would allow.
    std::vector<std::uint64_t> ids((std::size_t{1} << 20) + 2);
    for (auto& id : ids) id = trace::wire_span_id();
    for (const std::uint64_t id : ids) {
        ASSERT_LT(id, std::uint64_t{1} << 53);
        ASSERT_NE(id & (std::uint64_t{1} << 52), 0u);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(Trace, ScopedTraceIdInstallsAndRestores) {
    EXPECT_EQ(trace::current_trace_id(), 0u);
    {
        trace::ScopedTraceId outer(0xabc);
        EXPECT_EQ(trace::current_trace_id(), 0xabcu);
        {
            trace::ScopedTraceId inner(0xdef);
            EXPECT_EQ(trace::current_trace_id(), 0xdefu);
        }
        EXPECT_EQ(trace::current_trace_id(), 0xabcu);
    }
    EXPECT_EQ(trace::current_trace_id(), 0u);
}

// ------------------------------------------------------------------- json ----

TEST(Json, ParsesScalarsArraysAndObjects) {
    const auto doc = json::parse(
        R"({"name": "nbody", "budget": 1.5, "deep": {"ok": true},
            "list": [1, "two", null, false]})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->find("name")->string_or(""), "nbody");
    EXPECT_EQ(doc->find("budget")->number_or(0.0), 1.5);
    EXPECT_TRUE(doc->find("deep")->find("ok")->bool_or(false));
    const auto* list = doc->find("list");
    ASSERT_TRUE(list != nullptr && list->is_array());
    ASSERT_EQ(list->elements.size(), 4u);
    EXPECT_EQ(list->elements[0].number_or(0.0), 1.0);
    EXPECT_EQ(list->elements[1].string_or(""), "two");
    EXPECT_TRUE(list->elements[2].is_null());
    EXPECT_FALSE(list->elements[3].bool_or(true));
}

TEST(Json, ObjectMembersStayOrdered) {
    const auto doc = json::parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->members.size(), 3u);
    EXPECT_EQ(doc->members[0].first, "z");
    EXPECT_EQ(doc->members[1].first, "a");
    EXPECT_EQ(doc->members[2].first, "m");
}

TEST(Json, StringEscapes) {
    const auto doc = json::parse(R"(["a\"b", "tab\there", "Aé"])");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->elements[0].string_or(""), "a\"b");
    EXPECT_EQ(doc->elements[1].string_or(""), "tab\there");
    EXPECT_EQ(doc->elements[2].string_or(""), "A\xc3\xa9"); // UTF-8 e-acute
}

TEST(Json, RejectsMalformedInputWithOffset) {
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\": }", &error).has_value());
    EXPECT_NE(error.find("at byte"), std::string::npos);
    EXPECT_FALSE(json::parse("[1, 2,]").has_value());
    EXPECT_FALSE(json::parse("").has_value());
    EXPECT_FALSE(json::parse("[1] trailing").has_value()); // no garbage
}

TEST(Json, TypedGettersDefaultOnWrongKind) {
    const auto doc = json::parse(R"({"n": "not-a-number"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("n")->number_or(-1.0), -1.0);
    EXPECT_EQ(doc->find("absent"), nullptr);
    EXPECT_EQ(doc->string_or("def"), "def"); // object, not string
}

// -------------------------------------------------------------------- cli ----

namespace {

/// Run the parser over a synthetic argv, capturing stderr.
bool parse_args(cli::OptionParser& parser, std::vector<std::string> args,
                std::string* err_out = nullptr) {
    std::vector<char*> argv;
    static std::string program = "tool";
    argv.push_back(program.data());
    for (auto& a : args) argv.push_back(a.data());
    testing::internal::CaptureStderr();
    const bool ok =
        parser.parse(static_cast<int>(argv.size()), argv.data());
    const std::string err = testing::internal::GetCapturedStderr();
    if (err_out != nullptr) *err_out = err;
    return ok;
}

} // namespace

TEST(Cli, ParsesTypedOptions) {
    std::string app;
    long long jobs = 0;
    double budget = -1.0;
    bool verbose = false;
    cli::OptionParser parser("tool", {"--app <name>"});
    parser.str("--app", "<name>", "application", &app);
    parser.integer("--jobs", "<n>", "workers", &jobs, /*min=*/0);
    parser.real("--budget", "<dollars>", "cost cap", &budget);
    parser.flag("--verbose", "chatty", &verbose);

    EXPECT_TRUE(parse_args(
        parser, {"--app", "nbody", "--jobs", "4", "--budget", "2.5",
                 "--verbose"}));
    EXPECT_EQ(app, "nbody");
    EXPECT_EQ(jobs, 4);
    EXPECT_EQ(budget, 2.5);
    EXPECT_TRUE(verbose);
}

TEST(Cli, ReportsHistoricalErrorShapes) {
    auto make_parser = [](long long* jobs) {
        auto parser =
            std::make_unique<cli::OptionParser>("tool",
                                                std::vector<std::string>{""});
        parser->integer("--jobs", "<n>", "workers", jobs, /*min=*/0);
        return parser;
    };

    long long jobs = 0;
    std::string err;
    auto p1 = make_parser(&jobs);
    EXPECT_FALSE(parse_args(*p1, {"--jobs"}, &err));
    EXPECT_NE(err.find("missing value for --jobs"), std::string::npos);
    EXPECT_NE(err.find("usage:"), std::string::npos);

    auto p2 = make_parser(&jobs);
    EXPECT_FALSE(parse_args(*p2, {"--jobs", "abc"}, &err));
    EXPECT_NE(err.find("invalid integer 'abc' for --jobs"),
              std::string::npos);

    auto p3 = make_parser(&jobs);
    EXPECT_FALSE(parse_args(*p3, {"--jobs", "-1"}, &err));
    EXPECT_NE(err.find("--jobs must be >= 0"), std::string::npos);

    auto p4 = make_parser(&jobs);
    EXPECT_FALSE(parse_args(*p4, {"--frobnicate"}, &err));
    EXPECT_NE(err.find("unknown option '--frobnicate'"), std::string::npos);
}

TEST(Cli, HelpPrintsUsageAndReturnsFalse) {
    bool flag = false;
    cli::OptionParser parser("tool", {"[--flag]"});
    parser.flag("--flag", "a switch", &flag);
    std::string err;
    EXPECT_FALSE(parse_args(parser, {"--help"}, &err));
    EXPECT_NE(err.find("usage: tool [--flag]"), std::string::npos);
    EXPECT_NE(err.find("--flag"), std::string::npos);
    EXPECT_FALSE(flag);
}

// Regression (serving PR): joining/shutting down a pool while other
// threads are still enqueueing must neither deadlock nor drop jobs — every
// submitted job runs exactly once, either on a worker, in the shutdown
// drain, or inline on the submitter after the stop flag is visible.
TEST(ThreadPool, ShutdownDuringEnqueueRunsEveryJob) {
    for (int round = 0; round < 20; ++round) {
        auto pool = std::make_unique<ThreadPool>(4);
        constexpr int kSubmitters = 4;
        constexpr int kJobsPerSubmitter = 200;
        std::atomic<int> executed{0};
        std::atomic<bool> go{false};

        std::vector<std::thread> submitters;
        std::vector<std::unique_ptr<TaskGroup>> groups;
        groups.reserve(kSubmitters);
        for (int s = 0; s < kSubmitters; ++s)
            groups.push_back(std::make_unique<TaskGroup>(*pool));
        for (int s = 0; s < kSubmitters; ++s) {
            submitters.emplace_back([&, s] {
                while (!go.load()) {
                }
                for (int j = 0; j < kJobsPerSubmitter; ++j)
                    groups[static_cast<std::size_t>(s)]->run(
                        [&executed] { executed.fetch_add(1); });
            });
        }

        go.store(true);
        // Race shutdown against the submitters (vary the interleaving).
        if (round % 2 == 0) std::this_thread::yield();
        pool->shutdown();
        for (std::thread& t : submitters) t.join();
        for (auto& group : groups) group->wait();
        EXPECT_EQ(executed.load(), kSubmitters * kJobsPerSubmitter)
            << "round " << round;
        EXPECT_TRUE(pool->stopped());
    }
}

TEST(ThreadPool, ShutdownIsIdempotentAndSubmitAfterRunsInline) {
    ThreadPool pool(2);
    pool.shutdown();
    pool.shutdown(); // second call must be a no-op, not a crash
    EXPECT_TRUE(pool.stopped());

    // A group created after shutdown still runs its jobs (inline).
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    group.run([&] { ran.fetch_add(1); });
    group.run([&] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(Cli, FlowFlagsRegisterSharedOptions) {
    cli::FlowFlags flags;
    cli::OptionParser parser("tool", {""});
    cli::add_flow_flags(parser, flags);
    EXPECT_TRUE(parse_args(parser, {"--jobs", "3", "--trace-out", "t.json",
                                    "--cache-dir", "/tmp/cache",
                                    "--cache-max-mb", "64"}));
    EXPECT_EQ(flags.jobs, 3);
    EXPECT_EQ(flags.trace_out, "t.json");
    EXPECT_EQ(flags.cache_dir, "/tmp/cache");
    EXPECT_EQ(flags.cache_max_mb, 64);
}

} // namespace
} // namespace psaflow
