// Observability subsystem tests: the structured logger's ring and levels,
// Prometheus text exposition, the Chrome trace-event exporter, and the
// decision-provenance documents.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/decision.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace psaflow {
namespace {

// ----------------------------------------------------------------- logger ----

TEST(LogLevel, ParseAndPrintRoundTrip) {
    using obs::LogLevel;
    for (LogLevel level : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
                           LogLevel::Warn, LogLevel::Error, LogLevel::Off}) {
        const auto parsed = obs::parse_log_level(obs::to_string(level));
        ASSERT_TRUE(parsed.has_value()) << obs::to_string(level);
        EXPECT_EQ(*parsed, level);
    }
    EXPECT_FALSE(obs::parse_log_level("loud").has_value());
    EXPECT_FALSE(obs::parse_log_level("").has_value());
}

TEST(Logger, CaptureLevelFiltersRecords) {
    obs::Logger logger(8);
    logger.set_level(obs::LogLevel::Warn);
    logger.set_echo_level(obs::LogLevel::Off);
    EXPECT_FALSE(logger.enabled(obs::LogLevel::Info));
    EXPECT_TRUE(logger.enabled(obs::LogLevel::Error));
    logger.log(obs::LogLevel::Info, "test", "dropped by level");
    logger.log(obs::LogLevel::Warn, "test", "kept");
    const auto records = logger.recent();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].message, "kept");
}

TEST(Logger, RingWrapsKeepingNewestAndCountsDropped) {
    obs::Logger logger(4);
    logger.set_level(obs::LogLevel::Trace);
    logger.set_echo_level(obs::LogLevel::Off);
    for (int i = 0; i < 10; ++i)
        logger.log(obs::LogLevel::Info, "test", "m" + std::to_string(i));
    EXPECT_EQ(logger.total(), 10u);
    EXPECT_EQ(logger.dropped(), 6u);
    const auto records = logger.recent();
    ASSERT_EQ(records.size(), 4u);
    // Oldest-first snapshot of the surviving tail, monotonically sequenced.
    EXPECT_EQ(records[0].message, "m6");
    EXPECT_EQ(records[3].message, "m9");
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_GT(records[i].seq, records[i - 1].seq);
}

TEST(Logger, RecentHonoursMaxAndMinLevel) {
    obs::Logger logger(16);
    logger.set_level(obs::LogLevel::Trace);
    logger.set_echo_level(obs::LogLevel::Off);
    logger.log(obs::LogLevel::Debug, "test", "d1");
    logger.log(obs::LogLevel::Warn, "test", "w1");
    logger.log(obs::LogLevel::Debug, "test", "d2");
    logger.log(obs::LogLevel::Error, "test", "e1");
    const auto warnings = logger.recent(10, obs::LogLevel::Warn);
    ASSERT_EQ(warnings.size(), 2u);
    EXPECT_EQ(warnings[0].message, "w1");
    EXPECT_EQ(warnings[1].message, "e1");
    // max trims from the front: the newest records win.
    const auto last_two = logger.recent(2);
    ASSERT_EQ(last_two.size(), 2u);
    EXPECT_EQ(last_two[0].message, "d2");
    EXPECT_EQ(last_two[1].message, "e1");
}

TEST(Logger, LineRenderingQuotesAwkwardFieldValues) {
    obs::LogRecord record;
    record.wall_ms = 0;
    record.level = obs::LogLevel::Warn;
    record.component = "cas";
    record.message = "corrupt cache entry evicted";
    record.fields = {{"path", "/tmp/a b"}, {"bytes", "128"}};
    const std::string line = record.to_line();
    EXPECT_NE(line.find("1970-01-01T00:00:00.000Z"), std::string::npos);
    EXPECT_NE(line.find("warn cas: corrupt cache entry evicted"),
              std::string::npos);
    EXPECT_NE(line.find("path=\"/tmp/a b\""), std::string::npos);
    EXPECT_NE(line.find("bytes=128"), std::string::npos);
}

// ------------------------------------------------------------- prometheus ----

TEST(Prometheus, SanitizesDottedCounterNames) {
    EXPECT_EQ(obs::sanitize_metric_name("cache.profile.hit", "psaflow_"),
              "psaflow_cache_profile_hit");
    EXPECT_EQ(obs::sanitize_metric_name("9lives", ""), "_9lives");
    EXPECT_EQ(obs::sanitize_metric_name("a-b c", "x_"), "x_a_b_c");
}

TEST(Prometheus, HeadersEmittedOncePerMetricName) {
    obs::PrometheusRenderer renderer;
    renderer.counter("psaflowd_requests_total", "Requests by outcome", 3,
                     {{"outcome", "completed"}});
    renderer.counter("psaflowd_requests_total", "Requests by outcome", 1,
                     {{"outcome", "failed"}});
    const std::string& text = renderer.text();
    std::size_t first = text.find("# TYPE psaflowd_requests_total counter");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(
        text.find("# TYPE psaflowd_requests_total counter", first + 1),
        std::string::npos);
    EXPECT_NE(
        text.find("psaflowd_requests_total{outcome=\"completed\"} 3"),
        std::string::npos);
    EXPECT_NE(text.find("psaflowd_requests_total{outcome=\"failed\"} 1"),
              std::string::npos);
}

TEST(Prometheus, HistogramSeriesIsCumulativeWithSumAndCount) {
    Histogram hist;
    hist.record(1);
    hist.record(1);
    hist.record(100);
    obs::PrometheusRenderer renderer;
    renderer.histogram("lat_us", "latency", hist);
    const std::string& text = renderer.text();
    EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
    // Bucket upper bounds are exact inclusive caps (2^b - 1), cumulative.
    EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 2"), std::string::npos);
    EXPECT_NE(text.find("lat_us_bucket{le=\"127\"} 3"), std::string::npos);
    EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("lat_us_sum 102"), std::string::npos);
    EXPECT_NE(text.find("lat_us_count 3"), std::string::npos);
}

TEST(Prometheus, RenderCountersCoversTheWholeMap) {
    const std::map<std::string, std::uint64_t> counters = {
        {"flow.runs", 2}, {"interp.steps", 12345}};
    const std::string text = obs::render_counters(counters);
    EXPECT_NE(text.find("psaflow_flow_runs 2"), std::string::npos);
    EXPECT_NE(text.find("psaflow_interp_steps 12345"), std::string::npos);
}

TEST(Prometheus, EscapesLabelValuesPerTextFormat) {
    // text-format 0.0.4: backslash, double quote and newline must be
    // escaped inside label values — shard names and endpoints are
    // operator-controlled strings, so the exposition can't assume.
    obs::PrometheusRenderer renderer;
    renderer.gauge("awkward", "help", 1.0,
                   {{"shard", "a\\b\"c\nd"}});
    const std::string text = renderer.text();
    EXPECT_NE(text.find("awkward{shard=\"a\\\\b\\\"c\\nd\"} 1"),
              std::string::npos);
}

TEST(Prometheus, NonFiniteValuesRenderPerTextFormat) {
    obs::PrometheusRenderer renderer;
    renderer.gauge("not_a_number", "help",
                   std::numeric_limits<double>::quiet_NaN());
    renderer.gauge("too_big", "help",
                   std::numeric_limits<double>::infinity());
    renderer.gauge("too_small", "help",
                   -std::numeric_limits<double>::infinity());
    const std::string text = renderer.text();
    EXPECT_NE(text.find("not_a_number NaN"), std::string::npos);
    EXPECT_NE(text.find("too_big +Inf"), std::string::npos);
    EXPECT_NE(text.find("too_small -Inf"), std::string::npos);
}

TEST(Prometheus, LabeledHistogramSeriesCoexistAndSumExactly) {
    // The router's cluster exposition re-renders each shard's histogram
    // under one metric name with shard labels; the per-label +Inf counts
    // must add up to the merged (label-free) histogram's count.
    Histogram a, b, merged;
    a.record(3);
    a.record(5);
    b.record(300);
    merged.merge(a);
    merged.merge(b);

    obs::PrometheusRenderer renderer;
    renderer.histogram("shard_lat", "latency", a, {{"shard", "a"}});
    renderer.histogram("shard_lat", "latency", b, {{"shard", "b"}});
    renderer.histogram("fleet_lat", "merged latency", merged);
    const std::string text = renderer.text();
    EXPECT_NE(text.find("shard_lat_bucket{shard=\"a\",le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("shard_lat_bucket{shard=\"b\",le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("fleet_lat_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    // One HELP/TYPE header despite two label sets.
    EXPECT_EQ(text.find("# TYPE shard_lat histogram"),
              text.rfind("# TYPE shard_lat histogram"));
}

// -------------------------------------------------------- flight recorder ----

TEST(Flight, RecordsStampSequenceAndSnapshotOldestFirst) {
    obs::FlightRecorder recorder(8);
    for (int i = 1; i <= 3; ++i) {
        obs::FlightRecord record;
        record.total_us = static_cast<std::uint64_t>(i) * 100;
        record.set_app("nbody");
        record.set_status("ok");
        recorder.record(record);
    }
    EXPECT_EQ(recorder.total(), 3u);
    const auto snapshot = recorder.snapshot();
    ASSERT_EQ(snapshot.size(), 3u);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        EXPECT_EQ(snapshot[i].seq, i + 1);
        EXPECT_EQ(snapshot[i].total_us, (i + 1) * 100);
        EXPECT_EQ(std::string(snapshot[i].app), "nbody");
    }
}

TEST(Flight, RingKeepsTheNewestWhenLapped) {
    obs::FlightRecorder recorder(4);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        obs::FlightRecord record;
        record.trace_id = i;
        recorder.record(record);
    }
    EXPECT_EQ(recorder.total(), 10u);
    const auto snapshot = recorder.snapshot();
    ASSERT_EQ(snapshot.size(), 4u);
    for (std::size_t i = 0; i < snapshot.size(); ++i)
        EXPECT_EQ(snapshot[i].seq, 7 + i); // oldest-first, newest retained

    const auto newest = recorder.snapshot(/*max_records=*/2);
    ASSERT_EQ(newest.size(), 2u);
    EXPECT_EQ(newest[0].seq, 9u);
    EXPECT_EQ(newest[1].seq, 10u);
}

TEST(Flight, SloBreachIsFlaggedAndCounted) {
    obs::FlightRecorder recorder(8, /*slo_us=*/1000);
    obs::FlightRecord fast;
    fast.total_us = 500;
    recorder.record(fast);
    obs::FlightRecord slow;
    slow.total_us = 5000;
    recorder.record(slow);
    EXPECT_EQ(recorder.breaches(), 1u);
    const auto snapshot = recorder.snapshot();
    ASSERT_EQ(snapshot.size(), 2u);
    EXPECT_EQ(snapshot[0].slo_breach, 0u);
    EXPECT_EQ(snapshot[1].slo_breach, 1u);
}

TEST(Flight, ToJsonCarriesHexTraceIdAndTimings) {
    obs::FlightRecord record;
    record.trace_id = 0xabcULL;
    record.seq = 7;
    record.queue_wait_us = 10;
    record.exec_us = 20;
    record.total_us = 30;
    record.retries = 2;
    record.cache_hits = 3;
    record.set_lane("interactive");
    record.set_shard("127.0.0.1:7401");
    record.set_app("nbody");
    record.set_winner("simd");
    record.set_status("ok");

    const json::Value doc = obs::to_json(record);
    EXPECT_EQ(doc.find("trace_id")->string_or(""), "0000000000000abc");
    EXPECT_EQ(doc.find("seq")->number_or(0.0), 7.0);
    EXPECT_EQ(doc.find("queue_wait_us")->number_or(0.0), 10.0);
    EXPECT_EQ(doc.find("exec_us")->number_or(0.0), 20.0);
    EXPECT_EQ(doc.find("total_us")->number_or(0.0), 30.0);
    EXPECT_EQ(doc.find("retries")->number_or(0.0), 2.0);
    EXPECT_EQ(doc.find("cache_hits")->number_or(0.0), 3.0);
    EXPECT_EQ(doc.find("lane")->string_or(""), "interactive");
    EXPECT_EQ(doc.find("shard")->string_or(""), "127.0.0.1:7401");
    EXPECT_EQ(doc.find("app")->string_or(""), "nbody");
    EXPECT_EQ(doc.find("winner")->string_or(""), "simd");
    EXPECT_EQ(doc.find("status")->string_or(""), "ok");
    EXPECT_FALSE(doc.find("slo_breach")->bool_or(true));
}

TEST(Flight, OverlongFieldsTruncateWithoutOverflow) {
    obs::FlightRecord record;
    record.set_app(std::string(100, 'x'));
    record.set_status(std::string(100, 'y'));
    EXPECT_EQ(std::string(record.app).size(), sizeof record.app - 1);
    EXPECT_EQ(std::string(record.status).size(),
              sizeof record.status - 1);
}

TEST(Flight, WraparoundUnderConcurrentWritersStaysConsistent) {
    // The tsan target: writers lapping a small ring while a reader
    // snapshots mid-flight. Each record carries a self-consistency
    // relation (exec = 5*trace, queue = 3*trace) so any torn read —
    // half one record, half another — is detected, not just data races.
    obs::FlightRecorder recorder(8);
    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerWriter = 2000;

    std::atomic<bool> stop{false};
    std::thread reader([&recorder, &stop] {
        while (!stop.load()) {
            for (const obs::FlightRecord& record : recorder.snapshot()) {
                ASSERT_EQ(record.queue_wait_us, record.trace_id * 3);
                ASSERT_EQ(record.exec_us, record.trace_id * 5);
            }
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&recorder, w] {
            for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                const std::uint64_t k =
                    static_cast<std::uint64_t>(w) * kPerWriter + i + 1;
                obs::FlightRecord record;
                record.trace_id = k;
                record.queue_wait_us = k * 3;
                record.exec_us = k * 5;
                record.set_status("ok");
                recorder.record(record);
            }
        });
    for (std::thread& writer : writers) writer.join();
    stop.store(true);
    reader.join();

    EXPECT_EQ(recorder.total(), kWriters * kPerWriter);
    // No record is dropped: the ring holds exactly the newest `capacity`.
    const auto snapshot = recorder.snapshot();
    ASSERT_EQ(snapshot.size(), recorder.capacity());
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        EXPECT_EQ(snapshot[i].seq,
                  recorder.total() - recorder.capacity() + 1 + i);
        EXPECT_EQ(snapshot[i].queue_wait_us, snapshot[i].trace_id * 3);
        EXPECT_EQ(snapshot[i].exec_us, snapshot[i].trace_id * 5);
    }
}

// ----------------------------------------------------------- chrome trace ----

TEST(ChromeTrace, EmitsMetadataAndCompleteEventsWithCausality) {
    std::vector<trace::Span> spans;
    trace::Span root;
    root.name = "flow:nbody";
    root.category = "flow";
    root.id = 7;
    root.parent = 0;
    root.thread = 0;
    root.start_us = 10;
    root.duration_us = 500;
    trace::Span child = root;
    child.name = "task:identify-hotspot-loops";
    child.category = "task";
    child.id = 8;
    child.parent = 7;
    child.thread = 1;
    child.start_us = 20;
    child.duration_us = 100;
    child.work_units = 3.0;
    spans = {child, root}; // deliberately out of order

    const std::string document = obs::to_chrome_json(spans, "unit");
    std::string error;
    const auto doc = json::parse(document, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("displayTimeUnit")->string_or(""), "ms");

    const json::Value* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());

    std::size_t metadata = 0;
    std::vector<const json::Value*> complete;
    for (const json::Value& event : events->elements) {
        const std::string ph = event.find("ph")->string_or("");
        if (ph == "M") {
            ++metadata;
            continue;
        }
        ASSERT_EQ(ph, "X");
        complete.push_back(&event);
    }
    EXPECT_GE(metadata, 2u); // process name + at least one thread name
    ASSERT_EQ(complete.size(), 2u);
    // Sorted by start time: the root must come first despite input order.
    EXPECT_EQ(complete[0]->find("name")->string_or(""), "flow:nbody");
    EXPECT_EQ(complete[0]->find("ts")->number_or(-1), 10.0);
    EXPECT_EQ(complete[0]->find("dur")->number_or(-1), 500.0);
    const json::Value* args = complete[1]->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("span_id")->number_or(0), 8.0);
    EXPECT_EQ(args->find("parent_id")->number_or(0), 7.0);
    EXPECT_EQ(args->find("work_units")->number_or(0), 3.0);
}

// -------------------------------------------------------------- decisions ----

[[nodiscard]] obs::DecisionRecord sample_record() {
    obs::DecisionRecord record;
    record.branch = "A (target)";
    record.strategy = "informed (Fig. 3)";
    record.feedback_iteration = 1;
    obs::DecisionCandidate gpu;
    gpu.path = "gpu";
    gpu.selected = true;
    gpu.predicted_seconds = 0.5;
    gpu.run_cost = 0.001;
    gpu.evaluation = "Fig. 3 choice: CPU+GPU";
    obs::DecisionCandidate fpga;
    fpga.path = "fpga";
    fpga.excluded = true;
    fpga.evaluation = "excluded by cost-budget feedback";
    record.candidates = {gpu, fpga};
    record.selected = {"gpu"};
    record.rationale = "Fig. 3 selected CPU+GPU";
    return record;
}

TEST(Decisions, JsonReportCarriesEveryCandidateAndTheWinner) {
    const json::Value report =
        obs::decisions_json("nbody", "informed", {sample_record()});
    EXPECT_EQ(report.find("schema_version")->number_or(0), 1.0);
    EXPECT_EQ(report.find("app")->string_or(""), "nbody");
    EXPECT_EQ(report.find("mode")->string_or(""), "informed");
    const json::Value* decisions = report.find("decisions");
    ASSERT_NE(decisions, nullptr);
    ASSERT_EQ(decisions->elements.size(), 1u);
    const json::Value& decision = decisions->elements[0];
    EXPECT_EQ(decision.find("branch")->string_or(""), "A (target)");
    EXPECT_EQ(decision.find("strategy")->string_or(""), "informed (Fig. 3)");
    EXPECT_EQ(decision.find("feedback_iteration")->number_or(-1), 1.0);
    const json::Value* candidates = decision.find("candidates");
    ASSERT_NE(candidates, nullptr);
    ASSERT_EQ(candidates->elements.size(), 2u);
    const json::Value& gpu = candidates->elements[0];
    EXPECT_TRUE(gpu.find("selected")->bool_or(false));
    EXPECT_EQ(gpu.find("predicted_seconds")->number_or(0), 0.5);
    EXPECT_EQ(gpu.find("run_cost_usd")->number_or(0), 0.001);
    const json::Value& fpga = candidates->elements[1];
    EXPECT_TRUE(fpga.find("excluded")->bool_or(false));
    // Unevaluated candidates omit the cost members rather than emitting -1.
    EXPECT_EQ(fpga.find("predicted_seconds"), nullptr);
    const json::Value* selected = decision.find("selected");
    ASSERT_NE(selected, nullptr);
    ASSERT_EQ(selected->elements.size(), 1u);
    EXPECT_EQ(selected->elements[0].string_or(""), "gpu");
}

TEST(Decisions, MarkdownReportNamesBranchStrategyAndVerdicts) {
    const std::string report =
        obs::decisions_markdown("nbody", "informed", {sample_record()});
    EXPECT_NE(report.find("# Flow decisions: nbody (informed)"),
              std::string::npos);
    EXPECT_NE(report.find("Branch A (target)"), std::string::npos);
    EXPECT_NE(report.find("`informed (Fig. 3)`"), std::string::npos);
    EXPECT_NE(report.find("**selected**"), std::string::npos);
    EXPECT_NE(report.find("excluded by cost-budget feedback"),
              std::string::npos);
    EXPECT_NE(report.find("Fig. 3 selected CPU+GPU"), std::string::npos);
}

TEST(Decisions, EmptyReportsStayWellFormed) {
    const json::Value report = obs::decisions_json("app", "uninformed", {});
    ASSERT_NE(report.find("decisions"), nullptr);
    EXPECT_TRUE(report.find("decisions")->elements.empty());
    const std::string markdown =
        obs::decisions_markdown("app", "uninformed", {});
    EXPECT_NE(markdown.find("No branch points were reached."),
              std::string::npos);
}

} // namespace
} // namespace psaflow
