// Serving-layer tests: framing, protocol, admission queue, cancellation,
// the shared request executor, and a full in-process daemon end-to-end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "flow/manifest.hpp"
#include "flow/standard_flow.hpp"
#include "obs/flight.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire_trace.hpp"
#include "support/cancel.hpp"
#include "support/cas/cas.hpp"
#include "support/histogram.hpp"
#include "support/net.hpp"
#include "support/string_util.hpp"
#include "support/trace.hpp"

namespace psaflow {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- framing ----

TEST(Net, FrameRoundTrip) {
    net::Fd a, b;
    ASSERT_TRUE(net::socket_pair(a, b));
    const std::string message = "{\"type\":\"ping\"}";
    ASSERT_TRUE(net::write_frame(a.get(), message));

    std::string payload;
    EXPECT_EQ(net::read_frame(b.get(), payload), net::FrameStatus::Ok);
    EXPECT_EQ(payload, message);
}

TEST(Net, FrameSurvivesDribbledOneByteWrites) {
    net::Fd a, b;
    ASSERT_TRUE(net::socket_pair(a, b));
    const std::string message = "dribbled payload";

    std::thread writer([&] {
        // Rebuild the frame by hand and push it one byte at a time, so the
        // reader sees maximally torn reads.
        std::string frame;
        const std::uint32_t magic = net::kFrameMagic;
        const std::uint32_t length =
            static_cast<std::uint32_t>(message.size());
        for (int i = 0; i < 4; ++i)
            frame.push_back(static_cast<char>((magic >> (8 * i)) & 0xff));
        for (int i = 0; i < 4; ++i)
            frame.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
        frame += message;
        for (char c : frame) {
            ASSERT_TRUE(net::write_exact(a.get(), &c, 1));
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        a.reset();
    });

    std::string payload;
    EXPECT_EQ(net::read_frame(b.get(), payload), net::FrameStatus::Ok);
    EXPECT_EQ(payload, message);
    writer.join();
}

TEST(Net, CleanCloseIsEofTruncatedFrameIsTorn) {
    {
        net::Fd a, b;
        ASSERT_TRUE(net::socket_pair(a, b));
        a.reset(); // close without sending anything
        std::string payload;
        EXPECT_EQ(net::read_frame(b.get(), payload), net::FrameStatus::Eof);
    }
    {
        net::Fd a, b;
        ASSERT_TRUE(net::socket_pair(a, b));
        // Half a header, then close.
        const char half[4] = {'F', 'A', 'S', 'P'};
        ASSERT_TRUE(net::write_exact(a.get(), half, sizeof half));
        a.reset();
        std::string payload;
        EXPECT_EQ(net::read_frame(b.get(), payload), net::FrameStatus::Torn);
    }
    {
        net::Fd a, b;
        ASSERT_TRUE(net::socket_pair(a, b));
        // A full header promising bytes that never arrive.
        std::string frame;
        const std::uint32_t magic = net::kFrameMagic;
        const std::uint32_t length = 64;
        for (int i = 0; i < 4; ++i)
            frame.push_back(static_cast<char>((magic >> (8 * i)) & 0xff));
        for (int i = 0; i < 4; ++i)
            frame.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
        frame += "only a few bytes";
        ASSERT_TRUE(net::write_exact(a.get(), frame.data(), frame.size()));
        a.reset();
        std::string payload;
        EXPECT_EQ(net::read_frame(b.get(), payload), net::FrameStatus::Torn);
    }
}

TEST(Net, BadMagicAndOversizedLengthAreRejected) {
    {
        net::Fd a, b;
        ASSERT_TRUE(net::socket_pair(a, b));
        const char junk[8] = {'j', 'u', 'n', 'k', 0, 0, 0, 1};
        ASSERT_TRUE(net::write_exact(a.get(), junk, sizeof junk));
        std::string payload;
        EXPECT_EQ(net::read_frame(b.get(), payload), net::FrameStatus::Torn);
    }
    {
        net::Fd a, b;
        ASSERT_TRUE(net::socket_pair(a, b));
        std::string frame;
        const std::uint32_t magic = net::kFrameMagic;
        const std::uint32_t length = net::kMaxFramePayload + 1;
        for (int i = 0; i < 4; ++i)
            frame.push_back(static_cast<char>((magic >> (8 * i)) & 0xff));
        for (int i = 0; i < 4; ++i)
            frame.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
        ASSERT_TRUE(net::write_exact(a.get(), frame.data(), frame.size()));
        std::string payload;
        EXPECT_EQ(net::read_frame(b.get(), payload),
                  net::FrameStatus::TooLarge);
    }
}

TEST(Net, PipelinedFramesReadBackInOrder) {
    net::Fd a, b;
    ASSERT_TRUE(net::socket_pair(a, b));
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(net::write_frame(a.get(), "frame-" + std::to_string(i)));
    for (int i = 0; i < 16; ++i) {
        std::string payload;
        ASSERT_EQ(net::read_frame(b.get(), payload), net::FrameStatus::Ok);
        EXPECT_EQ(payload, "frame-" + std::to_string(i));
    }
}

// -------------------------------------------------------------- histogram ----

TEST(Histogram, RecordsCountsSumsAndExtremes) {
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.percentile(50), 0u);
    for (std::uint64_t v : {3u, 5u, 1000u, 0u}) hist.record(v);
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_EQ(hist.sum(), 1008u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 1000u);
}

TEST(Histogram, PercentilesClampToObservedRange) {
    Histogram hist;
    for (int i = 0; i < 100; ++i) hist.record(100);
    // All mass in one bucket: every percentile must report a value between
    // min and the bucket cap, clamped to max.
    EXPECT_EQ(hist.percentile(0), 100u);
    EXPECT_EQ(hist.percentile(100), 100u);
    EXPECT_LE(hist.percentile(50), 127u);
    EXPECT_GE(hist.percentile(50), 100u);
}

TEST(Histogram, MergeIsPointwise) {
    Histogram a, b;
    a.record(10);
    b.record(1000);
    b.record(2);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 1012u);
    EXPECT_EQ(a.min(), 2u);
    EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, EmptyReportsZerosEverywhere) {
    const Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.sum(), 0u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 0u);
    EXPECT_EQ(hist.mean(), 0.0);
    for (double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_EQ(hist.percentile(p), 0u);
}

TEST(Histogram, ZeroSamplesLandInBucketZero) {
    Histogram hist;
    hist.record(0);
    hist.record(0);
    EXPECT_EQ(hist.bucket_count(0), 2u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 0u);
    EXPECT_EQ(hist.percentile(50), 0u);
    EXPECT_EQ(hist.percentile(100), 0u);
}

TEST(Histogram, MaxSampleLandsInTheOverflowBucket) {
    Histogram hist;
    hist.record(UINT64_MAX);
    EXPECT_EQ(hist.bucket_count(Histogram::kBuckets - 1), 1u);
    EXPECT_EQ(hist.max(), UINT64_MAX);
    EXPECT_EQ(hist.percentile(100), UINT64_MAX);
    EXPECT_EQ(hist.percentile(0), UINT64_MAX); // clamped to recorded min
}

TEST(Histogram, BucketFloorsArePowersOfTwo) {
    EXPECT_EQ(Histogram::bucket_floor(0), 0u);
    EXPECT_EQ(Histogram::bucket_floor(1), 1u);
    EXPECT_EQ(Histogram::bucket_floor(2), 2u);
    EXPECT_EQ(Histogram::bucket_floor(10), 512u);
}

TEST(Histogram, MergeOfTwoEmptiesStaysEmpty) {
    Histogram a;
    const Histogram b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0u);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(a.percentile(99), 0u);
}

TEST(Histogram, MergeDisjointBucketsKeepsBothPopulations) {
    Histogram a, b;
    a.record(1);
    a.record(1);
    b.record(std::uint64_t{1} << 20);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.bucket_count(1), 2u);
    EXPECT_EQ(a.bucket_count(21), 1u); // floor 2^20 lives in bucket 21
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), std::uint64_t{1} << 20);
}

TEST(Histogram, MergeSaturatesCountsInsteadOfWrapping) {
    // from_parts can express counts no realistic record() loop could;
    // merging two such histograms must pin at UINT64_MAX, not wrap to 0.
    Histogram::Parts parts;
    parts.count = UINT64_MAX;
    parts.sum = UINT64_MAX;
    parts.min = 1;
    parts.max = 1;
    parts.buckets = {{1, UINT64_MAX}};
    Histogram a = Histogram::from_parts(parts);
    const Histogram b = Histogram::from_parts(parts);
    a.merge(b);
    EXPECT_EQ(a.count(), UINT64_MAX);
    EXPECT_EQ(a.sum(), UINT64_MAX);
    EXPECT_EQ(a.bucket_count(1), UINT64_MAX);
}

TEST(Histogram, MergedPercentilesMatchPooledSamples) {
    // Merging per-shard histograms must answer percentile queries exactly
    // as if every sample had been recorded into one histogram.
    Histogram a, b, merged, pooled;
    for (std::uint64_t v = 0; v < 500; ++v) {
        a.record(v);
        pooled.record(v);
    }
    for (std::uint64_t v = 5000; v < 5500; ++v) {
        b.record(v);
        pooled.record(v);
    }
    merged.merge(a);
    merged.merge(b);
    for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentile(p), pooled.percentile(p)) << p;
}

TEST(Histogram, FromPartsRebuildsExactBucketCounts) {
    Histogram original;
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{3}, std::uint64_t{700},
                            std::uint64_t{900}, std::uint64_t{1} << 30})
        original.record(v);

    Histogram::Parts parts;
    parts.count = original.count();
    parts.sum = original.sum();
    parts.min = original.min();
    parts.max = original.max();
    for (int b = 0; b < Histogram::kBuckets; ++b)
        if (original.bucket_count(b) != 0)
            parts.buckets.emplace_back(Histogram::bucket_floor(b),
                                       original.bucket_count(b));

    const Histogram rebuilt = Histogram::from_parts(parts);
    EXPECT_EQ(rebuilt.count(), original.count());
    EXPECT_EQ(rebuilt.sum(), original.sum());
    EXPECT_EQ(rebuilt.min(), original.min());
    EXPECT_EQ(rebuilt.max(), original.max());
    for (int b = 0; b < Histogram::kBuckets; ++b)
        EXPECT_EQ(rebuilt.bucket_count(b), original.bucket_count(b)) << b;
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(rebuilt.percentile(p), original.percentile(p)) << p;
}

TEST(Histogram, FromPartsOfNothingIsEmpty) {
    const Histogram rebuilt = Histogram::from_parts(Histogram::Parts{});
    EXPECT_EQ(rebuilt.count(), 0u);
    EXPECT_EQ(rebuilt.min(), 0u); // not the internal UINT64_MAX sentinel
    EXPECT_EQ(rebuilt.percentile(50), 0u);
}

TEST(Histogram, JsonRoundTripIsByteIdentical) {
    // The stats documents' histogram form: a router decodes what a shard
    // encoded, so encode -> decode -> encode must not move a byte.
    Histogram hist;
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{2},
                            std::uint64_t{3}, std::uint64_t{1500},
                            std::uint64_t{1} << 40})
        hist.record(v);
    const std::string encoded = json::dump(hist.to_json());
    const json::Value doc = hist.to_json();
    EXPECT_EQ(json::dump(Histogram::from_json(&doc).to_json()), encoded);
    EXPECT_NE(encoded.find("\"buckets\":[[0,1],[2,2],[1024,1]"),
              std::string::npos)
        << encoded;

    const Histogram empty;
    const json::Value empty_doc = empty.to_json();
    EXPECT_EQ(json::dump(Histogram::from_json(&empty_doc).to_json()),
              json::dump(empty_doc));
    EXPECT_EQ(json::dump(Histogram::from_json(nullptr).to_json()),
              json::dump(empty_doc));
}

// -------------------------------------------------------------- lane queue ----

TEST(LaneQueue, InteractiveLaneDrainsBeforeBatch) {
    serve::LaneQueue<int> queue(/*capacity=*/8, /*lanes=*/2, /*workers=*/1);
    ASSERT_TRUE(queue.try_push(10, /*lane=*/1, /*affinity=*/0)); // batch
    ASSERT_TRUE(queue.try_push(11, 1, 0));
    ASSERT_TRUE(queue.try_push(20, /*lane=*/0, 0)); // interactive, later
    EXPECT_EQ(queue.lane_depth(0), 1u);
    EXPECT_EQ(queue.lane_depth(1), 2u);

    auto first = queue.pop(0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->item, 20); // pushed last, drained first
    EXPECT_EQ(first->lane, 0u);
    auto second = queue.pop(0);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->item, 10); // batch FIFO resumes
}

TEST(LaneQueue, AffinityPinsToWorkerSubQueue) {
    serve::LaneQueue<int> queue(8, 1, /*workers=*/2);
    // Affinity 0 → worker 0's sub-queue; affinity 1 → worker 1's.
    ASSERT_TRUE(queue.try_push(100, 0, /*affinity=*/0));
    ASSERT_TRUE(queue.try_push(200, 0, /*affinity=*/1));
    auto for_one = queue.pop(1);
    ASSERT_TRUE(for_one.has_value());
    EXPECT_EQ(for_one->item, 200); // own sub-queue wins over a steal
    EXPECT_FALSE(for_one->stolen);
    EXPECT_EQ(queue.steals(), 0u);
}

TEST(LaneQueue, IdleWorkerStealsFromLongestSibling) {
    serve::LaneQueue<int> queue(8, 1, /*workers=*/2);
    // Everything lands on worker 0; worker 1 must steal to stay busy.
    ASSERT_TRUE(queue.try_push(1, 0, 0));
    ASSERT_TRUE(queue.try_push(2, 0, 0));
    ASSERT_TRUE(queue.try_push(3, 0, 0));
    auto stolen = queue.pop(1);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(stolen->item, 1); // the oldest, preserving FIFO fairness
    EXPECT_TRUE(stolen->stolen);
    EXPECT_EQ(queue.steals(), 1u);
    auto own = queue.pop(0);
    ASSERT_TRUE(own.has_value());
    EXPECT_EQ(own->item, 2);
    EXPECT_FALSE(own->stolen);
}

TEST(LaneQueue, RejectsWhenFullAndRecoversAfterPop) {
    serve::LaneQueue<int> queue(/*capacity=*/2, /*lanes=*/1, /*workers=*/1);
    EXPECT_TRUE(queue.try_push(1, 0, 0));
    EXPECT_TRUE(queue.try_push(2, 0, 0));
    EXPECT_FALSE(queue.try_push(3, 0, 0)); // full: the backpressure signal
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.pop(0)->item, 1);
    EXPECT_TRUE(queue.try_push(3, 0, 0));
}

TEST(LaneQueue, CloseDrainsAdmittedItemsThenSignalsExit) {
    serve::LaneQueue<int> queue(/*capacity=*/4, /*lanes=*/1, /*workers=*/1);
    EXPECT_TRUE(queue.try_push(1, 0, 0));
    EXPECT_TRUE(queue.try_push(2, 0, 0));
    queue.close();
    EXPECT_FALSE(queue.try_push(3, 0, 0)); // no admissions after close
    EXPECT_EQ(queue.pop(0)->item, 1);
    EXPECT_EQ(queue.pop(0)->item, 2);
    EXPECT_FALSE(queue.pop(0).has_value()); // closed and drained
}

TEST(LaneQueue, CloseWakesBlockedPoppers) {
    serve::LaneQueue<int> queue(/*capacity=*/1, /*lanes=*/2, /*workers=*/4);
    std::atomic<int> woke{0};
    std::vector<std::thread> poppers;
    for (std::size_t worker = 0; worker < 4; ++worker)
        poppers.emplace_back([&, worker] {
            while (queue.pop(worker).has_value()) {
            }
            woke.fetch_add(1);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    for (std::thread& t : poppers) t.join();
    EXPECT_EQ(woke.load(), 4);
}

TEST(LaneQueue, CapacityIsSharedAcrossLanesAndCloseDrains) {
    serve::LaneQueue<int> queue(/*capacity=*/2, 2, 2);
    ASSERT_TRUE(queue.try_push(1, 0, 0));
    ASSERT_TRUE(queue.try_push(2, 1, 1));
    EXPECT_FALSE(queue.try_push(3, 0, 0)) << "one bound for all lanes";
    queue.close();
    EXPECT_FALSE(queue.try_push(4, 0, 0));
    EXPECT_TRUE(queue.pop(0).has_value());
    EXPECT_TRUE(queue.pop(0).has_value()); // steals across lanes on drain
    EXPECT_FALSE(queue.pop(0).has_value()); // closed + drained → exit signal
}

// ----------------------------------------------------------- cancellation ----

TEST(Cancel, TokenFlagAndDeadline) {
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    token.set_deadline_after(std::chrono::hours(1));
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    EXPECT_TRUE(token.cancelled());

    CancelToken expired;
    expired.set_deadline_after(std::chrono::nanoseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(expired.cancelled());
}

TEST(Cancel, PollThrowsForFiredTokenOnly) {
    EXPECT_NO_THROW(poll_cancellation(nullptr));
    CancelToken token;
    EXPECT_NO_THROW(poll_cancellation(&token));
    token.cancel();
    EXPECT_THROW(poll_cancellation(&token), CancelledError);
}

TEST(Cancel, ScopeInstallsAmbientToken) {
    CancelToken token;
    token.cancel();
    EXPECT_NO_THROW(poll_cancellation()); // nothing installed
    {
        CancelScope scope(&token);
        EXPECT_EQ(current_cancel_token(), &token);
        EXPECT_THROW(poll_cancellation(), CancelledError);
    }
    EXPECT_EQ(current_cancel_token(), nullptr);
}

// --------------------------------------------------------------- protocol ----

TEST(Protocol, ParsesCompileRequestWithManifestFields) {
    const auto doc = json::parse(
        R"({"type":"compile","app":"nbody","mode":"uninformed",
            "budget":0.25,"threshold_x":2.5,"out":"x","deadline_ms":40})");
    ASSERT_TRUE(doc.has_value());
    serve::WireRequest request;
    EXPECT_FALSE(serve::parse_wire_request(*doc, request).has_value());
    EXPECT_EQ(request.type, serve::RequestType::Compile);
    EXPECT_EQ(request.compile.app, "nbody");
    EXPECT_EQ(request.compile.mode, "uninformed");
    EXPECT_DOUBLE_EQ(request.compile.budget, 0.25);
    EXPECT_DOUBLE_EQ(request.compile.threshold_x, 2.5);
    EXPECT_EQ(request.compile.out_dir, "x");
    EXPECT_EQ(request.compile.deadline_ms, 40);
}

TEST(Protocol, RejectsUnknownTypeMissingAppAndBadMode) {
    serve::WireRequest request;
    auto doc = json::parse(R"({"type":"frobnicate"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(serve::parse_wire_request(*doc, request).has_value());

    doc = json::parse(R"({"type":"compile"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(serve::parse_wire_request(*doc, request).has_value());

    doc = json::parse(R"({"type":"compile","app":"nbody","mode":"bogus"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(serve::parse_wire_request(*doc, request).has_value());
}

TEST(Protocol, ErrorResponseRoundTripsThroughParseResponse) {
    const json::Value error = serve::make_error_response(
        serve::ErrorKind::Overloaded, "queue full", /*retry_after_ms=*/250);
    const auto doc = json::parse(json::dump(error));
    ASSERT_TRUE(doc.has_value());
    const auto view = serve::parse_response(*doc);
    ASSERT_TRUE(view.has_value());
    EXPECT_FALSE(view->ok);
    EXPECT_EQ(view->error_kind, serve::ErrorKind::Overloaded);
    EXPECT_EQ(view->error, "queue full");
    EXPECT_EQ(view->retry_after_ms, 250);

    EXPECT_FALSE(serve::parse_response(json::Value::array()).has_value());
}

TEST(Protocol, SchemaVersionAbsentOrCurrentAcceptsFutureRejects) {
    serve::WireRequest request;
    // Absent = version 1 (pre-versioning clients keep working).
    auto doc = json::parse(R"({"type":"ping"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(serve::parse_wire_request(*doc, request).has_value());

    doc = json::parse(R"({"schema_version":1,"type":"ping"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(serve::parse_wire_request(*doc, request).has_value());

    doc = json::parse(R"({"schema_version":2,"type":"ping"})");
    ASSERT_TRUE(doc.has_value());
    auto error = serve::parse_wire_request(*doc, request);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(*error, "unsupported schema_version 2 (supported: 1)");

    // Non-numeric versions are rejected too, echoing the offending value.
    doc = json::parse(R"({"schema_version":"1","type":"ping"})");
    ASSERT_TRUE(doc.has_value());
    error = serve::parse_wire_request(*doc, request);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(*error, "unsupported schema_version \"1\" (supported: 1)");
}

TEST(Protocol, ResponsesStampTheSchemaVersion) {
    const json::Value docs[] = {
        serve::make_error_response(serve::ErrorKind::BadRequest, "nope",
                                   /*retry_after_ms=*/0),
        serve::make_pong_response(),
    };
    for (const json::Value& doc : docs) {
        const json::Value* version = doc.find("schema_version");
        ASSERT_NE(version, nullptr);
        EXPECT_DOUBLE_EQ(version->number_value,
                         double(serve::kSchemaVersion));
    }
}

TEST(Protocol, CompileRequestCarriesAValidatedInlineFlow) {
    const json::Value manifest =
        flow::to_manifest(flow::standard_flow(flow::Mode::Informed));
    json::Value doc = json::Value::object();
    doc.set("type", json::Value::string("compile"));
    doc.set("app", json::Value::string("nbody"));
    doc.set("flow", manifest);

    serve::WireRequest request;
    EXPECT_FALSE(serve::parse_wire_request(doc, request).has_value());
    ASSERT_NE(request.compile.flow, nullptr);
    EXPECT_EQ(request.compile.flow->canonical, json::dump(manifest));
}

TEST(Protocol, ManifestRequestAffinityDigestIsPinned) {
    // Routing keys off affinity_digest, so carrying the lowered manifest
    // instead of its text must not move it. Re-pin only on purpose: a new
    // value re-homes every manifest compile in a fleet.
    json::Value doc = json::Value::object();
    doc.set("type", json::Value::string("compile"));
    doc.set("app", json::Value::string("nbody"));
    doc.set("flow",
            flow::to_manifest(flow::standard_flow(flow::Mode::Informed)));
    serve::WireRequest request;
    ASSERT_FALSE(serve::parse_wire_request(doc, request).has_value());
    EXPECT_EQ(hex_u64(serve::affinity_digest(request.compile)),
              "68d7ff5029e99401");

    serve::CompileRequest builtin;
    builtin.app = "nbody";
    EXPECT_NE(serve::affinity_digest(builtin),
              serve::affinity_digest(request.compile));
}

TEST(Protocol, BrokenInlineFlowIsAParseErrorNotAMidRunFailure) {
    const auto doc = json::parse(
        R"({"type":"compile","app":"nbody",
            "flow":{"psaflow_manifest":1,"prologue":["no-such-task"]}})");
    ASSERT_TRUE(doc.has_value());
    serve::WireRequest request;
    const auto error = serve::parse_wire_request(*doc, request);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(*error,
              "flow manifest: $.prologue[0]: unknown task id "
              "'no-such-task'");

    const auto bad_shape = json::parse(
        R"({"type":"compile","app":"nbody","flow":7})");
    ASSERT_TRUE(bad_shape.has_value());
    const auto shape_error =
        serve::parse_wire_request(*bad_shape, request);
    ASSERT_TRUE(shape_error.has_value());
    EXPECT_EQ(*shape_error,
              "flow must be an inline manifest object");
}

TEST(Protocol, BatchEntriesMayNameTheirFlowByFilePath) {
    // The batch file is the operator's, so its entries may name a manifest
    // file; the request then carries the same text as the inline form.
    const fs::path path =
        fs::path(testing::TempDir()) /
        ("psaflow-batch-flow-" + std::to_string(::getpid()) + ".json");
    const json::Value manifest =
        flow::to_manifest(flow::standard_flow(flow::Mode::Uninformed));
    {
        std::ofstream file(path);
        file << json::dump(manifest);
    }
    json::Value by_path = json::Value::object();
    by_path.set("app", json::Value::string("nbody"));
    by_path.set("flow", json::Value::string(path.string()));
    json::Value by_value = json::Value::object();
    by_value.set("app", json::Value::string("nbody"));
    by_value.set("flow", manifest);
    json::Value doc = json::Value::array();
    doc.push(by_path);
    doc.push(by_value);

    serve::ManifestDefaults defaults;
    std::vector<serve::CompileRequest> requests;
    ASSERT_FALSE(serve::parse_manifest(doc, defaults, requests).has_value());
    ASSERT_EQ(requests.size(), 2u);
    ASSERT_NE(requests[0].flow, nullptr);
    ASSERT_NE(requests[1].flow, nullptr);
    EXPECT_EQ(requests[0].flow->canonical, json::dump(manifest));
    EXPECT_EQ(requests[1].flow->canonical, requests[0].flow->canonical);

    fs::remove(path);
    requests.clear();
    const auto missing = serve::parse_manifest(doc, defaults, requests);
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(*missing, "request 0: flow manifest: cannot read '" +
                            path.string() + "'");
}

TEST(Protocol, ParsesPriorityLane) {
    const auto batch = json::parse(
        R"({"type":"compile","app":"nbody","priority":"batch"})");
    ASSERT_TRUE(batch.has_value());
    serve::WireRequest request;
    EXPECT_FALSE(serve::parse_wire_request(*batch, request).has_value());
    EXPECT_EQ(request.compile.priority, serve::Priority::Batch);

    const auto implicit =
        json::parse(R"({"type":"compile","app":"nbody"})");
    ASSERT_TRUE(implicit.has_value());
    serve::WireRequest fresh;
    EXPECT_FALSE(serve::parse_wire_request(*implicit, fresh).has_value());
    EXPECT_EQ(fresh.compile.priority, serve::Priority::Interactive);

    const auto bogus = json::parse(
        R"({"type":"compile","app":"nbody","priority":"urgent"})");
    ASSERT_TRUE(bogus.has_value());
    serve::WireRequest rejected;
    EXPECT_TRUE(serve::parse_wire_request(*bogus, rejected).has_value());
}

TEST(Protocol, CasRequestsRoundTripKeysAndPayloads) {
    const auto get = json::parse(
        R"({"type":"cas_get","key":"00000000000000ff"})");
    ASSERT_TRUE(get.has_value());
    serve::WireRequest request;
    EXPECT_FALSE(serve::parse_wire_request(*get, request).has_value());
    EXPECT_EQ(request.type, serve::RequestType::CasGet);
    EXPECT_EQ(request.cas_key, 0xffu);

    // put carries the payload as base64; binary bytes survive.
    const std::string bytes = {'\x00', '\x01', '\xfe', 'z', 'z', '\n'};
    json::Value put = json::Value::object();
    put.set("type", json::Value::string("cas_put"));
    put.set("key", json::Value::string(hex_u64(0xdeadbeefULL)));
    put.set("payload", json::Value::string(base64_encode(bytes)));
    serve::WireRequest stored;
    EXPECT_FALSE(serve::parse_wire_request(put, stored).has_value());
    EXPECT_EQ(stored.type, serve::RequestType::CasPut);
    EXPECT_EQ(stored.cas_key, 0xdeadbeefULL);
    EXPECT_EQ(stored.cas_payload, bytes);

    // Malformed keys and payloads are parse errors, not crashes.
    const auto short_key =
        json::parse(R"({"type":"cas_get","key":"ff"})");
    ASSERT_TRUE(short_key.has_value());
    serve::WireRequest bad;
    EXPECT_TRUE(serve::parse_wire_request(*short_key, bad).has_value());
    const auto bad_b64 = json::parse(
        R"({"type":"cas_put","key":"00000000000000ff","payload":"!!"})");
    ASSERT_TRUE(bad_b64.has_value());
    EXPECT_TRUE(serve::parse_wire_request(*bad_b64, bad).has_value());

    // Response constructors: found carries the payload back, miss omits it.
    const json::Value hit = serve::make_cas_get_response(bytes);
    EXPECT_TRUE(hit.find("found")->bool_value);
    EXPECT_EQ(*base64_decode(hit.find("payload")->string_value), bytes);
    const json::Value miss = serve::make_cas_get_response(std::nullopt);
    EXPECT_FALSE(miss.find("found")->bool_value);
    EXPECT_EQ(miss.find("payload"), nullptr);
}

// -------------------------------------------------------------- wire trace ----

TEST(WireTrace, TraceMemberRoundTripsThroughRequestParse) {
    json::Value doc = json::Value::object();
    doc.set("type", json::Value::string("ping"));
    serve::WireTraceContext ctx;
    ctx.trace_id = 0xabcdef12u;
    ctx.parent_span = 42;
    serve::set_trace_member(doc, ctx);

    serve::WireRequest request;
    ASSERT_FALSE(serve::parse_wire_request(doc, request).has_value());
    EXPECT_TRUE(request.trace.traced());
    EXPECT_EQ(request.trace.trace_id, 0xabcdef12u);
    EXPECT_EQ(request.trace.parent_span, 42u);
}

TEST(WireTrace, UntracedContextLeavesTheDocumentUntouched) {
    json::Value doc = json::Value::object();
    serve::set_trace_member(doc, serve::WireTraceContext{});
    EXPECT_EQ(doc.find("trace"), nullptr);
}

TEST(WireTrace, MalformedTraceMemberDegradesToUntraced) {
    const auto doc = json::parse(
        R"({"type":"ping","trace":{"trace_id":"not-hex"}})");
    ASSERT_TRUE(doc.has_value());
    serve::WireRequest request;
    // Tolerant parse: a garbled trace context degrades to an untraced
    // request, it never fails an otherwise valid one.
    ASSERT_FALSE(serve::parse_wire_request(*doc, request).has_value());
    EXPECT_FALSE(request.trace.traced());
}

TEST(WireTrace, ResponseSpansRoundTrip) {
    std::vector<trace::Span> spans(2);
    spans[0].name = "root";
    spans[0].category = "serve";
    spans[0].id = 7;
    spans[0].parent = 3;
    spans[0].duration_us = 10;
    spans[1].name = "child";
    spans[1].id = 8;
    spans[1].parent = 7;
    spans[1].start_us = 2;
    spans[1].duration_us = 5;
    spans[1].work_units = 1.5;

    json::Value response = json::Value::object();
    serve::attach_response_trace(response, 0x77, spans);
    EXPECT_EQ(serve::response_trace_id(response), 0x77u);
    const std::vector<trace::Span> back =
        serve::response_trace_spans(response);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, "root");
    EXPECT_EQ(back[0].category, "serve");
    EXPECT_EQ(back[0].id, 7u);
    EXPECT_EQ(back[0].parent, 3u);
    EXPECT_EQ(back[1].start_us, 2u);
    EXPECT_EQ(back[1].duration_us, 5u);
    EXPECT_EQ(back[1].work_units, 1.5);
}

TEST(WireTrace, NestSpansCentersChildrenInsideTheWrapperWindow) {
    std::vector<trace::Span> spans(1);
    spans[0].id = 2;
    spans[0].parent = 1;
    spans[0].start_us = 0;
    spans[0].duration_us = 10;
    trace::Span wrapper;
    wrapper.id = 1;
    wrapper.start_us = 100;
    wrapper.duration_us = 50;
    serve::nest_spans(spans, wrapper);

    ASSERT_EQ(spans.size(), 2u); // the wrapper itself is appended last
    const trace::Span& child = spans[0];
    const trace::Span& window = spans[1];
    EXPECT_EQ(window.id, 1u);
    EXPECT_EQ(child.start_us, 120u); // slack (50-10)/2 on each side
    EXPECT_GE(child.start_us, window.start_us);
    EXPECT_LE(child.start_us + child.duration_us,
              window.start_us + window.duration_us);
}

TEST(WireTrace, NestSpansStretchesTheWrapperOnClockSkew) {
    std::vector<trace::Span> spans(1);
    spans[0].id = 2;
    spans[0].start_us = 0;
    spans[0].duration_us = 80; // longer than the wrapper window
    trace::Span wrapper;
    wrapper.id = 1;
    wrapper.start_us = 100;
    wrapper.duration_us = 50;
    serve::nest_spans(spans, wrapper);

    ASSERT_EQ(spans.size(), 2u);
    EXPECT_GE(spans[1].duration_us, 80u);
    EXPECT_LE(spans[0].start_us + spans[0].duration_us,
              spans[1].start_us + spans[1].duration_us);
}

TEST(Protocol, ParsesFlightAndClusterRequestTypes) {
    serve::WireRequest request;
    const auto flight = json::parse(R"({"type":"flight","max":5})");
    ASSERT_TRUE(flight.has_value());
    ASSERT_FALSE(serve::parse_wire_request(*flight, request).has_value());
    EXPECT_EQ(request.type, serve::RequestType::Flight);
    EXPECT_EQ(request.flight_max, 5);

    const auto stats = json::parse(R"({"type":"cluster_stats"})");
    ASSERT_FALSE(serve::parse_wire_request(*stats, request).has_value());
    EXPECT_EQ(request.type, serve::RequestType::ClusterStats);

    const auto metrics = json::parse(R"({"type":"cluster_metrics"})");
    ASSERT_FALSE(serve::parse_wire_request(*metrics, request).has_value());
    EXPECT_EQ(request.type, serve::RequestType::ClusterMetrics);

    const auto bad = json::parse(R"({"type":"flight","max":-1})");
    EXPECT_TRUE(serve::parse_wire_request(*bad, request).has_value());
}

TEST(Protocol, FlightResponseCarriesRecorderStateAndRecords) {
    obs::FlightRecorder recorder(4);
    obs::FlightRecord record;
    record.trace_id = 0x99;
    record.total_us = 1234;
    record.set_app("nbody");
    record.set_status("ok");
    recorder.record(record);

    const json::Value response = serve::make_flight_response(recorder, 0);
    EXPECT_TRUE(response.find("ok")->bool_value);
    EXPECT_EQ(response.find("type")->string_or(""), "flight");
    EXPECT_EQ(response.find("schema_version")->number_or(0.0), 1.0);
    EXPECT_EQ(response.find("capacity")->number_or(0.0), 4.0);
    const json::Value* records = response.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->elements.size(), 1u);
    EXPECT_EQ(records->elements[0].find("app")->string_or(""), "nbody");
    EXPECT_EQ(records->elements[0].find("total_us")->number_or(0.0),
              1234.0);
}

TEST(Net, WriteFrameStatusDistinguishesOversizeFromTransport) {
    net::Fd a, b;
    ASSERT_TRUE(net::socket_pair(a, b));
    EXPECT_EQ(net::write_frame_status(a.get(), "ok"), net::WriteStatus::Ok);
    std::string echoed;
    ASSERT_EQ(net::read_frame(b.get(), echoed), net::FrameStatus::Ok);
    EXPECT_EQ(echoed, "ok");

    // An oversized payload is refused before any byte hits the wire.
    std::string oversized(net::kMaxFramePayload + 1, 'x');
    EXPECT_EQ(net::write_frame_status(a.get(), oversized),
              net::WriteStatus::TooLarge);
    // The peer saw nothing: the next frame reads back cleanly.
    EXPECT_EQ(net::write_frame_status(a.get(), "after"),
              net::WriteStatus::Ok);
    ASSERT_EQ(net::read_frame(b.get(), echoed), net::FrameStatus::Ok);
    EXPECT_EQ(echoed, "after");

    // A vanished peer is a transport error, not a silent true.
    b.reset();
    std::string big(1 << 20, 'y');
    net::WriteStatus gone = net::write_frame_status(a.get(), big);
    if (gone == net::WriteStatus::Ok) // kernel buffered the first frame
        gone = net::write_frame_status(a.get(), big);
    EXPECT_EQ(gone, net::WriteStatus::Error);
}

// --------------------------------------------------------------- executor ----

/// Scratch directory for one serve test, removed on destruction.
struct ScratchDir {
    fs::path path;
    explicit ScratchDir(const std::string& name) {
        // PID-suffixed so concurrently running test processes (ctest -j
        // spawns one per test) can never clobber each other's scratch
        // trees or live daemon sockets.
        path = fs::path(testing::TempDir()) /
               ("psaflow-serve-" + name + "-" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

TEST(ExecuteRequest, CompilesAndIsolatesPerRequestCounters) {
    ScratchDir dir("executor");
    flow::FlowSession session;

    serve::CompileRequest req;
    req.app = "adpredictor";
    req.out_dir = (dir.path / "one").string();
    const serve::CompileOutcome first =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_GT(first.design_count, 0u);
    EXPECT_FALSE(first.designs.empty());
    EXPECT_TRUE(fs::exists(first.summary_path));

    req.out_dir = (dir.path / "two").string();
    const serve::CompileOutcome second =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(second.ok) << second.error;

    // Satellite regression: counters must be scoped to one request, not
    // accumulated across consecutive runs in the same process.
    EXPECT_EQ(first.counters.at("flow.runs"), 1u);
    EXPECT_EQ(second.counters.at("flow.runs"), 1u);
    EXPECT_GT(first.counters.at("interp.runs"), 0u);
}

TEST(ExecuteRequest, FlowResultHitKeepsPerRequestCounters) {
    // The same isolation with a store: the second request is answered by
    // the flow-result tier, and its counters show that request alone.
    ScratchDir dir("executor-tier");
    flow::SessionOptions session_options;
    session_options.cache_dir = (dir.path / "cache").string();
    flow::FlowSession session(session_options);

    serve::CompileRequest req;
    req.app = "adpredictor";
    req.out_dir = (dir.path / "one").string();
    const serve::CompileOutcome first =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(first.ok) << first.error;
    req.out_dir = (dir.path / "two").string();
    const serve::CompileOutcome second =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(second.ok) << second.error;

    EXPECT_EQ(first.counters.at("flow.runs"), 1u);
    EXPECT_EQ(first.counters.at("flow_cache.misses"), 1u);
    EXPECT_EQ(first.counters.count("flow_cache.hits"), 0u);
    EXPECT_EQ(second.counters.at("flow_cache.hits"), 1u);
    EXPECT_EQ(second.counters.count("flow.runs"), 0u);
    EXPECT_EQ(second.counters.count("flow_cache.misses"), 0u);
    EXPECT_EQ(second.counters.count("interp.runs"), 0u);
    EXPECT_GE(serve::cache_hits(second), 1u);

    // The hit wrote the same files.
    ASSERT_EQ(second.designs.size(), first.designs.size());
    for (const serve::DesignRow& row : first.designs) {
        std::ifstream a(dir.path / "one" / row.filename);
        std::ifstream b(dir.path / "two" / row.filename);
        std::stringstream sa, sb;
        sa << a.rdbuf();
        sb << b.rdbuf();
        EXPECT_EQ(sa.str(), sb.str()) << row.filename;
    }
}

TEST(ExecuteRequest, TracedRequestYieldsOneRootedHopTree) {
    ScratchDir dir("traced");
    flow::FlowSession session;
    serve::CompileRequest req;
    req.app = "adpredictor";
    req.out_dir = (dir.path / "out").string();

    serve::RequestTrace trace;
    trace.trace_id = 0xfeedu;
    trace.parent_span = 77; // the requester's span, not in this process
    trace.queue_wait_us = 500;
    const serve::CompileOutcome outcome = serve::execute_request(
        session, req, nullptr, nullptr, &trace);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_GE(outcome.spans.size(), 3u); // at least the synthesized hops

    // Exactly one span (serve:request) parents on the remote span; every
    // other parent resolves inside the returned set — the requester can
    // graft the whole thing under its own span and get a single tree.
    std::map<std::uint64_t, const trace::Span*> by_id;
    for (const trace::Span& span : outcome.spans) {
        EXPECT_NE(span.id, 0u) << span.name;
        EXPECT_TRUE(by_id.emplace(span.id, &span).second)
            << "duplicate id on " << span.name;
    }
    std::size_t roots = 0;
    const trace::Span* root = nullptr;
    for (const trace::Span& span : outcome.spans) {
        if (span.parent == 77) {
            ++roots;
            root = &span;
            continue;
        }
        EXPECT_TRUE(by_id.count(span.parent) == 1)
            << span.name << " has unresolved parent " << span.parent;
    }
    ASSERT_EQ(roots, 1u);
    EXPECT_EQ(root->name, "serve:request");
    EXPECT_EQ(root->start_us, 0u);

    bool saw_queue_wait = false, saw_execute = false;
    for (const trace::Span& span : outcome.spans) {
        if (span.name == "serve:queue-wait") {
            saw_queue_wait = true;
            EXPECT_EQ(span.duration_us, 500u);
            EXPECT_EQ(span.parent, root->id);
        }
        if (span.name == "serve:execute") {
            saw_execute = true;
            EXPECT_EQ(span.start_us, 500u); // starts after the queue wait
            EXPECT_EQ(span.parent, root->id);
        }
        // Timing containment: the root's window covers every hop.
        EXPECT_GE(span.start_us, root->start_us) << span.name;
        EXPECT_LE(span.start_us + span.duration_us,
                  root->start_us + root->duration_us)
            << span.name;
    }
    EXPECT_TRUE(saw_queue_wait);
    EXPECT_TRUE(saw_execute);

    // Writing the designs and the summary is one io span whose work units
    // are the bytes of every file written.
    double bytes = 0.0;
    for (const auto& file : fs::directory_iterator(req.out_dir))
        bytes += static_cast<double>(file.file_size());
    std::size_t writes = 0;
    for (const trace::Span& span : outcome.spans) {
        if (span.name != "write_designs") continue;
        ++writes;
        EXPECT_EQ(span.category, "io");
        EXPECT_EQ(span.work_units, bytes);
    }
    EXPECT_EQ(writes, 1u);
}

TEST(ExecuteRequest, UntracedRequestSynthesizesNoHopSpans) {
    ScratchDir dir("untraced");
    flow::FlowSession session;
    serve::CompileRequest req;
    req.app = "adpredictor";
    req.out_dir = (dir.path / "out").string();
    const serve::CompileOutcome outcome =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    for (const trace::Span& span : outcome.spans)
        EXPECT_NE(span.name, "serve:request");
}

TEST(ExecuteRequest, UnknownAppIsBadRequest) {
    ScratchDir dir("badapp");
    flow::FlowSession session;
    serve::CompileRequest req;
    req.app = "no_such_app";
    req.out_dir = (dir.path / "out").string();
    const serve::CompileOutcome outcome =
        serve::execute_request(session, req, nullptr, nullptr);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error_kind, serve::ErrorKind::BadRequest);
    EXPECT_NE(outcome.error.find("no_such_app"), std::string::npos);
}

TEST(ExecuteRequest, FiredTokenYieldsDeadlineExceeded) {
    ScratchDir dir("cancelled");
    flow::FlowSession session;
    serve::CompileRequest req;
    req.app = "adpredictor";
    req.out_dir = (dir.path / "out").string();

    CancelToken token;
    token.cancel();
    const serve::CompileOutcome outcome =
        serve::execute_request(session, req, &token, nullptr);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error_kind, serve::ErrorKind::DeadlineExceeded);
    EXPECT_EQ(outcome.error.rfind("flow failed:", 0), 0u) << outcome.error;
}

TEST(ExecuteRequest, TightDeadlineCancelsColdCompile) {
    ScratchDir dir("deadline");
    flow::FlowSession session;
    serve::CompileRequest req;
    req.app = "rushlarsen"; // the slowest bundled app (~0.5 s cold)
    req.out_dir = (dir.path / "out").string();
    req.deadline_ms = 1;
    const serve::CompileOutcome outcome =
        serve::execute_request(session, req, nullptr, nullptr);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error_kind, serve::ErrorKind::DeadlineExceeded);

    // The session stays healthy for the next request (failure isolation).
    req.deadline_ms = 0;
    req.app = "adpredictor";
    const serve::CompileOutcome after =
        serve::execute_request(session, req, nullptr, nullptr);
    EXPECT_TRUE(after.ok) << after.error;
}

TEST(ExecuteRequest, ExportedStandardFlowMatchesTheBuiltin) {
    ScratchDir dir("manifestflow");
    flow::FlowSession session;

    serve::CompileRequest req;
    req.app = "adpredictor";
    req.out_dir = (dir.path / "builtin").string();
    const serve::CompileOutcome builtin =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(builtin.ok) << builtin.error;

    req.out_dir = (dir.path / "manifest").string();
    req.flow = std::make_shared<const flow::ManifestFlow>(flow::from_manifest(
        flow::to_manifest(flow::standard_flow(flow::Mode::Informed))));
    const serve::CompileOutcome exported =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(exported.ok) << exported.error;

    // The exported-and-reimported standard flow is the same program: same
    // designs with the same measurements, byte-identical sources on disk.
    ASSERT_EQ(exported.designs.size(), builtin.designs.size());
    for (std::size_t i = 0; i < builtin.designs.size(); ++i) {
        const serve::DesignRow& a = builtin.designs[i];
        const serve::DesignRow& b = exported.designs[i];
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.device, a.device);
        EXPECT_EQ(b.speedup, a.speedup);

        std::ifstream fa(fs::path(builtin.summary_path).parent_path() /
                         a.filename);
        std::ifstream fb(fs::path(exported.summary_path).parent_path() /
                         b.filename);
        std::stringstream sa, sb;
        sa << fa.rdbuf();
        sb << fb.rdbuf();
        EXPECT_EQ(sb.str(), sa.str()) << a.filename;
    }
}

// ------------------------------------------------------------- daemon e2e ----

/// One request/response round trip against a daemon socket.
json::Value client_round_trip(const std::string& socket_path,
                              const std::string& request_json) {
    std::string error;
    net::Fd conn = net::connect_unix(socket_path, &error);
    EXPECT_TRUE(conn.valid()) << error;
    if (!conn.valid()) return json::Value::null();
    EXPECT_TRUE(net::write_frame(conn.get(), request_json));
    std::string payload;
    EXPECT_EQ(net::read_frame(conn.get(), payload), net::FrameStatus::Ok);
    auto doc = json::parse(payload, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return doc.has_value() ? *doc : json::Value::null();
}

/// A daemon on a scratch socket whose run() loop owns a background thread.
struct DaemonFixture {
    ScratchDir dir;
    serve::Daemon daemon;
    std::thread runner;

    explicit DaemonFixture(const std::string& name,
                           serve::DaemonOptions options = {})
        : dir(name), daemon([&] {
              options.socket_path = (dir.path / "d.sock").string();
              if (options.out_root == "designs")
                  options.out_root = (dir.path / "out").string();
              options.enable_test_endpoints = true;
              return options;
          }()) {}

    void start() {
        auto error = daemon.start();
        ASSERT_FALSE(error.has_value()) << *error;
        runner = std::thread([this] { daemon.run(); });
    }

    void drain() {
        daemon.notify_shutdown();
        if (runner.joinable()) runner.join();
    }

    ~DaemonFixture() { drain(); }

    [[nodiscard]] const std::string& socket() const {
        return daemon.options().socket_path;
    }
};

TEST(Daemon, ServesConcurrentCompilesIdenticalToDirectExecution) {
    DaemonFixture fixture("e2e", [] {
        serve::DaemonOptions options;
        options.workers = 4;
        return options;
    }());
    fixture.start();

    const std::vector<std::string> apps = {"adpredictor", "kmeans",
                                           "adpredictor", "kmeans",
                                           "adpredictor", "kmeans",
                                           "adpredictor", "kmeans"};
    std::vector<json::Value> responses(apps.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < apps.size(); ++i)
        clients.emplace_back([&, i] {
            const std::string request =
                "{\"type\":\"compile\",\"app\":\"" + apps[i] +
                "\",\"out\":\"req-" + std::to_string(i) + "\"}";
            responses[i] = client_round_trip(fixture.socket(), request);
        });
    for (std::thread& t : clients) t.join();

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const json::Value* ok = responses[i].find("ok");
        ASSERT_NE(ok, nullptr) << "request " << i;
        EXPECT_TRUE(ok->bool_value) << json::dump(responses[i]);
        // Per-request metrics isolation across daemon workers too.
        const json::Value* counters = responses[i].find("counters");
        ASSERT_NE(counters, nullptr);
        const json::Value* runs = counters->find("flow.runs");
        ASSERT_NE(runs, nullptr);
        EXPECT_DOUBLE_EQ(runs->number_value, 1.0);
    }

    // Byte-identical to running the same request directly in-process.
    ScratchDir direct("e2e-direct");
    flow::FlowSession session;
    serve::CompileRequest req;
    req.app = "adpredictor";
    req.out_dir = (direct.path / "out").string();
    const serve::CompileOutcome outcome =
        serve::execute_request(session, req, nullptr, nullptr);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    for (const serve::DesignRow& row : outcome.designs) {
        const fs::path daemon_file =
            fs::path(fixture.daemon.options().out_root) / "req-0" /
            row.filename;
        ASSERT_TRUE(fs::exists(daemon_file)) << daemon_file;
        std::ifstream a(fs::path(req.out_dir) / row.filename);
        std::ifstream b(daemon_file);
        const std::string direct_bytes(
            (std::istreambuf_iterator<char>(a)),
            std::istreambuf_iterator<char>());
        const std::string daemon_bytes(
            (std::istreambuf_iterator<char>(b)),
            std::istreambuf_iterator<char>());
        EXPECT_EQ(direct_bytes, daemon_bytes) << row.filename;
    }

    fixture.drain();
    EXPECT_FALSE(fs::exists(fixture.socket()));
}

TEST(Daemon, RequestsLeaveTheGlobalTraceRegistryAlone) {
    // Nothing in the daemon reads the process-wide registry: its stats and
    // metrics come from each outcome's counters, so requests must not
    // grow it.
    trace::Registry& global = trace::Registry::global();
    global.set_enabled(true);
    DaemonFixture fixture("no-merge");
    fixture.start();
    const std::size_t spans_before = global.spans().size();
    const auto counters_before = global.counters();
    for (int i = 0; i < 4; ++i) {
        const json::Value response = client_round_trip(
            fixture.socket(),
            R"({"type":"compile","app":"adpredictor","out":"r-)" +
                std::to_string(i) + "\"}");
        ASSERT_NE(response.find("ok"), nullptr);
        EXPECT_TRUE(response.find("ok")->bool_value) << json::dump(response);
    }
    EXPECT_EQ(global.spans().size(), spans_before);
    EXPECT_EQ(global.counters(), counters_before);
}

TEST(Daemon, FlowResultHitsReachStatsAndFlightRecords) {
    ScratchDir cache("flow-tier-cache");
    DaemonFixture fixture("flow-tier", [&] {
        serve::DaemonOptions options;
        options.workers = 1;
        options.session.cache_dir = cache.path.string();
        return options;
    }());
    fixture.start();
    for (int i = 0; i < 2; ++i) {
        const json::Value response = client_round_trip(
            fixture.socket(),
            R"({"type":"compile","app":"kmeans","out":"r-)" +
                std::to_string(i) + "\"}");
        ASSERT_NE(response.find("ok"), nullptr);
        EXPECT_TRUE(response.find("ok")->bool_value) << json::dump(response);
    }

    const json::Value stats =
        client_round_trip(fixture.socket(), R"({"type":"stats"})");
    const json::Value* counters = stats.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("flow_cache.hits"), nullptr);
    EXPECT_EQ(counters->find("flow_cache.hits")->number_value, 1.0);
    EXPECT_EQ(counters->find("flow_cache.misses")->number_value, 1.0);
    EXPECT_EQ(counters->find("flow.runs")->number_value, 1.0);

    const json::Value flight =
        client_round_trip(fixture.socket(), R"({"type":"flight","max":1})");
    const json::Value* records = flight.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->elements.size(), 1u);
    EXPECT_GE(records->elements[0].find("cache_hits")->number_value, 1.0);
}

TEST(Daemon, InteractiveCompilesOvertakeQueuedBatchCompiles) {
    DaemonFixture fixture("priority", [] {
        serve::DaemonOptions options;
        options.workers = 1;
        return options;
    }());
    fixture.start();
    // Polls stats until `member` reads `value`; false after 10 s.
    const auto wait_for = [&](const char* member, double value) {
        for (int i = 0; i < 1000; ++i) {
            const json::Value stats =
                client_round_trip(fixture.socket(), R"({"type":"stats"})");
            const json::Value* v = stats.find(member);
            if (v != nullptr && v->number_value == value) return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return false;
    };

    // The sleep holds the only worker while a batch compile and then an
    // interactive one queue up behind it.
    std::vector<std::thread> clients;
    const auto send = [&](std::string request) {
        clients.emplace_back([&fixture, request] {
            (void)client_round_trip(fixture.socket(), request);
        });
    };
    send(R"({"type":"sleep","ms":2000})");
    const bool sleeping = wait_for("in_flight", 1.0);
    send(R"({"type":"compile","app":"kmeans","out":"b","priority":"batch"})");
    const bool batch_queued = sleeping && wait_for("queue_depth", 1.0);
    send(R"({"type":"compile","app":"bezier","out":"i",)"
         R"("priority":"interactive"})");
    const bool both_queued = batch_queued && wait_for("queue_depth", 2.0);
    for (std::thread& t : clients) t.join();
    ASSERT_TRUE(both_queued);

    const json::Value flight =
        client_round_trip(fixture.socket(), R"({"type":"flight"})");
    const json::Value* records = flight.find("records");
    ASSERT_NE(records, nullptr);
    std::map<std::string, double> seq_by_lane;
    for (const json::Value& record : records->elements) {
        EXPECT_EQ(record.find("status")->string_or(""), "ok");
        seq_by_lane[record.find("lane")->string_or("")] =
            record.find("seq")->number_value;
    }
    ASSERT_EQ(seq_by_lane.count("interactive"), 1u);
    ASSERT_EQ(seq_by_lane.count("batch"), 1u);
    EXPECT_LT(seq_by_lane["interactive"], seq_by_lane["batch"]);
}

TEST(Daemon, FullQueueRejectsWithRetryHint) {
    DaemonFixture fixture("overload", [] {
        serve::DaemonOptions options;
        options.workers = 1;
        options.queue_depth = 1;
        return options;
    }());
    fixture.start();

    // Occupy the worker, then the single queue slot, with sleeps — staggered
    // so the first is already executing (not queued) when the second is
    // admitted — then poke.
    std::vector<std::thread> sleepers;
    for (int i = 0; i < 2; ++i) {
        sleepers.emplace_back([&] {
            (void)client_round_trip(fixture.socket(),
                                    R"({"type":"sleep","ms":800})");
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    const json::Value response = client_round_trip(
        fixture.socket(), R"({"type":"sleep","ms":1})");
    const auto view = serve::parse_response(response);
    ASSERT_TRUE(view.has_value());
    EXPECT_FALSE(view->ok);
    EXPECT_EQ(view->error_kind, serve::ErrorKind::Overloaded);
    EXPECT_GT(view->retry_after_ms, 0);

    // Stats answer inline even while the worker is saturated.
    const json::Value stats =
        client_round_trip(fixture.socket(), R"({"type":"stats"})");
    const json::Value* requests = stats.find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->find("rejected_overload")->number_value, 1.0);

    for (std::thread& t : sleepers) t.join();
}

TEST(Daemon, DeadlineExpiredRequestDoesNotDisturbOthers) {
    DaemonFixture fixture("deadline", [] {
        serve::DaemonOptions options;
        options.workers = 2;
        return options;
    }());
    fixture.start();

    std::vector<json::Value> responses(3);
    std::vector<std::thread> clients;
    clients.emplace_back([&] {
        responses[0] = client_round_trip(
            fixture.socket(),
            R"({"type":"sleep","ms":500,"deadline_ms":30})");
    });
    clients.emplace_back([&] {
        responses[1] = client_round_trip(fixture.socket(),
                                         R"({"type":"sleep","ms":60})");
    });
    clients.emplace_back([&] {
        responses[2] = client_round_trip(
            fixture.socket(),
            R"({"type":"compile","app":"adpredictor","out":"iso"})");
    });
    for (std::thread& t : clients) t.join();

    const auto timed_out = serve::parse_response(responses[0]);
    ASSERT_TRUE(timed_out.has_value());
    EXPECT_FALSE(timed_out->ok);
    EXPECT_EQ(timed_out->error_kind, serve::ErrorKind::DeadlineExceeded);

    for (int i = 1; i < 3; ++i) {
        const auto view = serve::parse_response(responses[i]);
        ASSERT_TRUE(view.has_value());
        EXPECT_TRUE(view->ok) << json::dump(responses[static_cast<std::size_t>(i)]);
    }

    const json::Value stats =
        client_round_trip(fixture.socket(), R"({"type":"stats"})");
    const json::Value* requests = stats.find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->find("deadline_exceeded")->number_value, 1.0);
    EXPECT_GE(requests->find("completed")->number_value, 2.0);
}

TEST(Daemon, MalformedFramesGetStructuredErrors) {
    DaemonFixture fixture("malformed");
    fixture.start();

    // Invalid JSON in a well-formed frame: connection survives, the next
    // request on the same connection still works.
    std::string error;
    net::Fd conn = net::connect_unix(fixture.socket(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_TRUE(net::write_frame(conn.get(), "{nope"));
    std::string payload;
    ASSERT_EQ(net::read_frame(conn.get(), payload), net::FrameStatus::Ok);
    auto doc = json::parse(payload);
    ASSERT_TRUE(doc.has_value());
    auto view = serve::parse_response(*doc);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->error_kind, serve::ErrorKind::BadRequest);

    ASSERT_TRUE(net::write_frame(conn.get(), R"({"type":"ping"})"));
    ASSERT_EQ(net::read_frame(conn.get(), payload), net::FrameStatus::Ok);
    doc = json::parse(payload);
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->find("ok")->bool_value);

    // Garbage bytes (bad magic): structured complaint, then close.
    net::Fd conn2 = net::connect_unix(fixture.socket(), &error);
    ASSERT_TRUE(conn2.valid()) << error;
    const char junk[8] = {'x', 'x', 'x', 'x', 9, 9, 9, 9};
    ASSERT_TRUE(net::write_exact(conn2.get(), junk, sizeof junk));
    ASSERT_EQ(net::read_frame(conn2.get(), payload), net::FrameStatus::Ok);
    doc = json::parse(payload);
    ASSERT_TRUE(doc.has_value());
    view = serve::parse_response(*doc);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->error_kind, serve::ErrorKind::BadRequest);
    EXPECT_EQ(net::read_frame(conn2.get(), payload), net::FrameStatus::Eof);
}

TEST(Daemon, RelativeOutMayNotLeaveTheOutputRoot) {
    DaemonFixture fixture("out-escape");
    fixture.start();

    const auto compile_into = [&](const std::string& out) {
        return serve::parse_response(client_round_trip(
            fixture.socket(),
            R"({"type":"compile","app":"nbody","out":")" + out + R"("})"));
    };
    // A relative "out" is joined to the output root; one that climbs out
    // of it is refused before anything runs or is written.
    for (const char* out : {"../escaped", "a/../../escaped"}) {
        SCOPED_TRACE(out);
        const auto view = compile_into(out);
        ASSERT_TRUE(view.has_value());
        EXPECT_FALSE(view->ok);
        EXPECT_EQ(view->error_kind, serve::ErrorKind::BadRequest);
        EXPECT_EQ(view->error, "\"out\" must not leave the output root");
    }
    EXPECT_FALSE(fs::exists(fixture.dir.path / "escaped"));
    EXPECT_EQ(fixture.daemon.counters().bad_requests, 2u);

    // ".." that stays inside the root is fine.
    const auto inside = compile_into("sub/../inside");
    ASSERT_TRUE(inside.has_value());
    EXPECT_TRUE(inside->ok) << inside->error;
    EXPECT_TRUE(fs::exists(fixture.dir.path / "out" / "inside"));
}

TEST(Daemon, WireFlowPathIsABadRequestEvenForAValidManifestFile) {
    // The daemon parses requests on its reader threads and never opens a
    // path a client names: a "flow" string is rejected, not read.
    DaemonFixture fixture("wire-flow-path");
    fixture.start();
    ScratchDir dir("wire-flow-path-file");
    const fs::path manifest = dir.path / "std.json";
    {
        std::ofstream file(manifest);
        file << json::dump(
            flow::to_manifest(flow::standard_flow(flow::Mode::Informed)));
    }
    json::Value request = json::Value::object();
    request.set("type", json::Value::string("compile"));
    request.set("app", json::Value::string("nbody"));
    request.set("flow", json::Value::string(manifest.string()));
    const json::Value response =
        client_round_trip(fixture.socket(), json::dump(request));
    const auto view = serve::parse_response(response);
    ASSERT_TRUE(view.has_value()) << json::dump(response);
    EXPECT_FALSE(view->ok);
    EXPECT_EQ(view->error_kind, serve::ErrorKind::BadRequest);
    EXPECT_EQ(view->error, "flow must be an inline manifest object");
}

TEST(Daemon, DrainFinishesAdmittedWorkAndRemovesSocket) {
    DaemonFixture fixture("drain", [] {
        serve::DaemonOptions options;
        options.workers = 1;
        return options;
    }());
    fixture.start();

    // Admit a slow job, then shut down while it is in flight: the client
    // must still get its response, and the socket file must disappear.
    json::Value response;
    std::thread client([&] {
        response = client_round_trip(fixture.socket(),
                                     R"({"type":"sleep","ms":150})");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fixture.drain();
    client.join();

    const auto view = serve::parse_response(response);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(view->ok);
    EXPECT_FALSE(fs::exists(fixture.socket()));
}

TEST(Daemon, ServesPrometheusMetricsAndRecentLogsOverTheSocket) {
    DaemonFixture fixture("obs-endpoints");
    fixture.start();

    // One compile so latency histograms and flow counters have samples, and
    // so the response's new decision_count member is exercised.
    const json::Value compile = client_round_trip(
        fixture.socket(),
        R"({"type":"compile","app":"adpredictor","out":"req"})");
    const json::Value* ok = compile.find("ok");
    ASSERT_NE(ok, nullptr);
    ASSERT_TRUE(ok->bool_value) << json::dump(compile);
    const json::Value* decision_count = compile.find("decision_count");
    ASSERT_NE(decision_count, nullptr);
    EXPECT_GE(decision_count->number_value, 1.0);

    const json::Value metrics =
        client_round_trip(fixture.socket(), R"({"type":"metrics"})");
    ASSERT_NE(metrics.find("ok"), nullptr);
    EXPECT_TRUE(metrics.find("ok")->bool_value) << json::dump(metrics);
    ASSERT_NE(metrics.find("content_type"), nullptr);
    EXPECT_EQ(metrics.find("content_type")->string_or(""),
              "text/plain; version=0.0.4");
    ASSERT_NE(metrics.find("body"), nullptr);
    const std::string body = metrics.find("body")->string_or("");
    EXPECT_NE(body.find("# TYPE psaflowd_requests_total counter"),
              std::string::npos);
    EXPECT_NE(body.find("psaflowd_requests_total{outcome=\"completed\"} 1"),
              std::string::npos);
    EXPECT_NE(body.find("# TYPE psaflowd_request_latency_us histogram"),
              std::string::npos);
    EXPECT_NE(body.find("psaflowd_request_latency_us_count 1"),
              std::string::npos);
    EXPECT_NE(body.find("psaflow_flow_decisions"), std::string::npos);
    EXPECT_NE(body.find("psaflowd_workers 2"), std::string::npos);

    const json::Value logs = client_round_trip(
        fixture.socket(), R"({"type":"logs","max":200})");
    ASSERT_NE(logs.find("ok"), nullptr);
    EXPECT_TRUE(logs.find("ok")->bool_value) << json::dump(logs);
    const json::Value* records = logs.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_TRUE(records->is_array());
    // The daemon logs its own startup; the ring is process-global, so just
    // require the listening line for *this* fixture's socket to be present.
    bool found_listening = false;
    for (const json::Value& record : records->elements) {
        const json::Value* message = record.find("message");
        const json::Value* line = record.find("line");
        ASSERT_NE(message, nullptr);
        ASSERT_NE(line, nullptr);
        if (message->string_or("") == "daemon listening" &&
            line->string_or("").find(fixture.socket()) != std::string::npos)
            found_listening = true;
    }
    EXPECT_TRUE(found_listening) << json::dump(logs);

    // A bad max is a structured bad_request, not a dropped connection.
    const json::Value bad = client_round_trip(
        fixture.socket(), R"({"type":"logs","max":-1})");
    const auto bad_view = serve::parse_response(bad);
    ASSERT_TRUE(bad_view.has_value());
    EXPECT_FALSE(bad_view->ok);
    EXPECT_EQ(bad_view->error_kind, serve::ErrorKind::BadRequest);
}

} // namespace
} // namespace psaflow
