// Tests for the disk-backed content-addressed store (support/cas): key
// hashing, payload serialisation, frame integrity under corruption, LRU
// eviction, concurrent writers (also two stores on one root), and the
// profile-payload round trip that underpins warm-run byte-identity.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "analysis/profile_cache.hpp"
#include "interp/profile.hpp"
#include "support/cas/cas.hpp"
#include "support/cli.hpp"

using namespace psaflow;
namespace fs = std::filesystem;

namespace {

/// Fresh store root under the gtest temp dir, removed on destruction.
struct TempRoot {
    fs::path path;

    explicit TempRoot(const std::string& name) {
        path = fs::path(testing::TempDir()) / ("psaflow-cas-" + name);
        fs::remove_all(path);
    }
    ~TempRoot() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/// All .cas entry files currently on disk under `root`.
std::vector<fs::path> entry_files(const fs::path& root) {
    std::vector<fs::path> out;
    if (!fs::exists(root)) return out;
    for (const auto& e : fs::recursive_directory_iterator(root)) {
        if (e.is_regular_file() && e.path().extension() == ".cas")
            out.push_back(e.path());
    }
    return out;
}

void rewrite_file(const fs::path& path, const std::string& blob) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace

// ------------------------------------------------------------------ Hasher --

TEST(CasHasher, LengthPrefixPreventsConcatenationAliasing) {
    const auto a = cas::Hasher().str("ab").str("c").digest();
    const auto b = cas::Hasher().str("a").str("bc").digest();
    EXPECT_NE(a, b);
}

TEST(CasHasher, SeededWithEngineVersion) {
    // A default Hasher must already differ from the raw FNV offset basis:
    // keys may never alias across engine revisions.
    EXPECT_NE(cas::Hasher().digest(), 0xcbf29ce484222325ULL);
}

TEST(CasHasher, RealHashesBitPatterns) {
    const auto pos = cas::Hasher().real(0.0).digest();
    const auto neg = cas::Hasher().real(-0.0).digest();
    EXPECT_NE(pos, neg); // -0.0 and 0.0 are distinct inputs
    EXPECT_EQ(cas::Hasher().real(1.5).digest(),
              cas::Hasher().real(1.5).digest());
}

TEST(CasHasher, Deterministic) {
    const auto one =
        cas::Hasher().str("interp-profile").u64(7).boolean(true).digest();
    const auto two =
        cas::Hasher().str("interp-profile").u64(7).boolean(true).digest();
    EXPECT_EQ(one, two);
}

// --------------------------------------------------------- Writer / Reader --

TEST(CasPayload, WriterReaderRoundTrip) {
    cas::Writer w;
    w.u32(42);
    w.u64(0xdeadbeefcafef00dULL);
    w.i64(-17);
    w.boolean(true);
    w.real(-0.0);
    w.real(std::nan(""));
    w.str(std::string("hello\0world", 11)); // embedded NUL must survive
    w.str("");

    cas::Reader r(w.payload());
    EXPECT_EQ(r.u32(), 42u);
    EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(r.i64(), -17);
    EXPECT_TRUE(r.boolean());
    const double neg_zero = r.real();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero)); // bit-exact, not value-equal
    EXPECT_TRUE(std::isnan(r.real()));
    EXPECT_EQ(r.str(), std::string("hello\0world", 11));
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.complete());
}

TEST(CasPayload, ReaderLatchesFailureOnTruncation) {
    cas::Writer w;
    w.u64(1);
    const std::string payload = w.payload();
    cas::Reader r(payload.substr(0, payload.size() - 1));
    (void)r.u64();
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.complete());
}

TEST(CasPayload, ReaderCompleteRequiresFullConsumption) {
    cas::Writer w;
    w.u32(1);
    w.u32(2);
    cas::Reader r(w.payload());
    EXPECT_EQ(r.u32(), 1u);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.complete()); // one u32 left unread
}

// ---------------------------------------------------------------- CasStore --

TEST(CasStore, PutGetRoundTrip) {
    TempRoot root("roundtrip");
    cas::CasStore store(root.path);
    store.put(0x1234, "payload-bytes");
    const auto got = store.get(0x1234);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "payload-bytes");
    EXPECT_EQ(store.stats().writes, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 0u);
}

TEST(CasStore, AbsentKeyIsMiss) {
    TempRoot root("miss");
    cas::CasStore store(root.path);
    EXPECT_FALSE(store.get(0x9999).has_value());
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(CasStore, RemoteFetchIsReadThroughOnLocalMiss) {
    TempRoot root("remote-fetch");
    cas::CasStore store(root.path);
    int fetches = 0;
    store.set_remote(
        [&](std::uint64_t key) -> std::optional<std::string> {
            ++fetches;
            if (key == 0xabc) return std::string("from-peer");
            return std::nullopt;
        },
        /*publish=*/nullptr);

    // Local miss → remote hit → cached locally; the second get never
    // leaves the process.
    auto got = store.get(0xabc);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "from-peer");
    got = store.get(0xabc);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(fetches, 1) << "read-through should cache";

    // Remote miss stays a miss and is counted as one.
    EXPECT_FALSE(store.get(0xdef).has_value());
    EXPECT_EQ(fetches, 2);

    // get_local never consults the remote tier (the wire handlers use it
    // to serve peers without recursing).
    EXPECT_FALSE(store.get_local(0x123).has_value());
    EXPECT_EQ(fetches, 2);
}

TEST(CasStore, PutPublishesToRemoteBestEffort) {
    TempRoot root("remote-publish");
    cas::CasStore store(root.path);
    std::vector<std::uint64_t> published;
    store.set_remote(
        /*fetch=*/nullptr,
        [&](std::uint64_t key, std::string_view payload) {
            published.push_back(key);
            return payload.size() % 2 == 0; // alternate success/failure
        });
    store.put(1, "even");
    store.put(2, "odd--");
    ASSERT_EQ(published.size(), 2u);
    EXPECT_EQ(published[0], 1u);
    // A failed publish is invisible to the caller: both entries read back.
    EXPECT_TRUE(store.get_local(1).has_value());
    EXPECT_TRUE(store.get_local(2).has_value());
}

TEST(CasStore, PersistsAcrossReopen) {
    TempRoot root("reopen");
    {
        cas::CasStore store(root.path);
        store.put(7, "seven");
        store.put(8, "eight");
    }
    cas::CasStore reopened(root.path);
    EXPECT_EQ(reopened.size_bytes(), 2 * 40u + 5 + 5); // header + payload
    const auto seven = reopened.get(7);
    const auto eight = reopened.get(8);
    ASSERT_TRUE(seven.has_value());
    ASSERT_TRUE(eight.has_value());
    EXPECT_EQ(*seven, "seven");
    EXPECT_EQ(*eight, "eight");
}

TEST(CasStore, TruncatedEntryIsCorruptMissAndDeleted) {
    TempRoot root("truncated");
    cas::CasStore store(root.path);
    store.put(11, "some payload worth truncating");
    const auto files = entry_files(root.path);
    ASSERT_EQ(files.size(), 1u);
    const std::string blob = read_file(files[0]);
    rewrite_file(files[0], blob.substr(0, blob.size() / 2));

    EXPECT_FALSE(store.get(11).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_FALSE(fs::exists(files[0])); // corrupt entries are removed
}

TEST(CasStore, BitFlippedPayloadFailsChecksum) {
    TempRoot root("bitflip");
    cas::CasStore store(root.path);
    store.put(12, "checksummed payload");
    const auto files = entry_files(root.path);
    ASSERT_EQ(files.size(), 1u);
    std::string blob = read_file(files[0]);
    blob[blob.size() - 1] ^= 0x40; // flip one payload bit
    rewrite_file(files[0], blob);

    EXPECT_FALSE(store.get(12).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(files[0]));
}

TEST(CasStore, FormatVersionMismatchIsMiss) {
    TempRoot root("version");
    cas::CasStore store(root.path);
    store.put(13, "versioned payload");
    const auto files = entry_files(root.path);
    ASSERT_EQ(files.size(), 1u);
    std::string blob = read_file(files[0]);
    blob[8] = static_cast<char>(cas::CasStore::kFormatVersion + 1);
    rewrite_file(files[0], blob);

    EXPECT_FALSE(store.get(13).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(CasStore, LruEvictionUnderSmallCap) {
    TempRoot root("lru");
    const std::string payload(100, 'x'); // 140 bytes per entry with header
    cas::CasStore store(root.path, /*max_bytes=*/3 * 140);
    store.put(1, payload);
    store.put(2, payload);
    store.put(3, payload);
    EXPECT_EQ(store.stats().evictions, 0u);

    // Touch 1 so 2 becomes the LRU entry, then overflow the cap.
    ASSERT_TRUE(store.get(1).has_value());
    store.put(4, payload);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_LE(store.size_bytes(), store.max_bytes());

    EXPECT_FALSE(store.get(2).has_value()); // evicted
    EXPECT_TRUE(store.get(1).has_value());  // survived (recently used)
    EXPECT_TRUE(store.get(3).has_value());
    EXPECT_TRUE(store.get(4).has_value());
    EXPECT_EQ(entry_files(root.path).size(), 3u);
}

TEST(CasStore, ReputtingRefreshesRecencyWithoutGrowth) {
    TempRoot root("reput");
    const std::string payload(100, 'y');
    cas::CasStore store(root.path, /*max_bytes=*/2 * 140);
    store.put(1, payload);
    store.put(2, payload);
    store.put(1, payload); // refresh, not a new entry
    EXPECT_EQ(store.stats().evictions, 0u);
    store.put(3, payload); // now 2 is LRU and must go
    EXPECT_FALSE(store.get(2).has_value());
    EXPECT_TRUE(store.get(1).has_value());
    EXPECT_TRUE(store.get(3).has_value());
}

TEST(CasStore, ClearRemovesEverything) {
    TempRoot root("clear");
    cas::CasStore store(root.path);
    store.put(21, "a");
    store.put(22, "b");
    store.clear();
    EXPECT_EQ(store.size_bytes(), 0u);
    EXPECT_TRUE(entry_files(root.path).empty());
    EXPECT_FALSE(store.get(21).has_value());
}

TEST(CasStore, ConcurrentWritersAndReaders) {
    TempRoot root("concurrent");
    cas::CasStore store(root.path);
    constexpr int kThreads = 8;
    constexpr int kKeysPerThread = 16;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, t] {
            for (int k = 0; k < kKeysPerThread; ++k) {
                // Half the keys are shared across all threads (racing
                // writers of identical content), half are private.
                const bool shared = (k % 2) == 0;
                const std::uint64_t key =
                    shared ? static_cast<std::uint64_t>(1000 + k)
                           : static_cast<std::uint64_t>(2000 + t * 100 + k);
                const std::string payload =
                    "payload-" + std::to_string(key);
                store.put(key, payload);
                const auto got = store.get(key);
                ASSERT_TRUE(got.has_value());
                ASSERT_EQ(*got, payload);
            }
        });
    }
    for (auto& t : threads) t.join();

    // Every key is present with the exact bytes its writers agreed on.
    for (int k = 0; k < kKeysPerThread; k += 2) {
        const std::uint64_t key = static_cast<std::uint64_t>(1000 + k);
        const auto got = store.get(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, "payload-" + std::to_string(key));
    }
    EXPECT_EQ(store.stats().corrupt, 0u);
}

TEST(CasStore, StoresSharingARootNeverShareATempFile) {
    // Two stores on one root (two sessions of one process, or a batch run
    // beside a daemon) rewrite the same keys while a third store reads:
    // every put lands and no reader ever sees a torn entry.
    TempRoot root("shared-root");
    cas::CasStore first(root.path);
    cas::CasStore second(root.path);
    cas::CasStore reader(root.path);
    constexpr int kKeys = 4;
    constexpr int kRounds = 150;
    std::vector<std::string> payloads;
    for (int k = 0; k < kKeys; ++k)
        payloads.push_back(std::string(256 << 10, static_cast<char>('a' + k)));

    // The writers start each round together, so they write the same key
    // at the same moment.
    std::barrier round_start(2);
    std::atomic<bool> writing{true};
    const auto write_all = [&](cas::CasStore& store) {
        for (int round = 0; round < kRounds; ++round) {
            round_start.arrive_and_wait();
            for (int k = 0; k < kKeys; ++k)
                store.put_local(static_cast<std::uint64_t>(k + 1),
                                payloads[k]);
        }
    };
    std::thread reads([&] {
        while (writing.load())
            for (int k = 0; k < kKeys; ++k)
                (void)reader.get_local(static_cast<std::uint64_t>(k + 1));
    });
    std::thread writes_first(write_all, std::ref(first));
    std::thread writes_second(write_all, std::ref(second));
    writes_first.join();
    writes_second.join();
    writing.store(false);
    reads.join();

    EXPECT_EQ(first.stats().writes, std::uint64_t{kKeys * kRounds});
    EXPECT_EQ(second.stats().writes, std::uint64_t{kKeys * kRounds});
    EXPECT_EQ(reader.stats().corrupt, 0u);
    for (int k = 0; k < kKeys; ++k)
        EXPECT_EQ(reader.get_local(static_cast<std::uint64_t>(k + 1)),
                  payloads[k]);
}

TEST(CasStore, EnvCapAboveBoundKeepsDefault) {
    // 2^44 + 1 MiB overflows 64 bits as bytes; the cap must not wrap to
    // 1 MiB but fall back to the default (reads as unset) like any other
    // invalid value.
    ::setenv("PSAFLOW_CACHE_MAX_MB", "17592186044417", 1);
    EXPECT_EQ(cli::load_environment().cache_max_mb, 0);

    ::setenv("PSAFLOW_CACHE_MAX_MB", "17592186044415", 1); // the bound
    EXPECT_EQ(cli::load_environment().cache_max_mb, cas::kMaxCacheMb);

    ::setenv("PSAFLOW_CACHE_MAX_MB", "12abc", 1);
    EXPECT_EQ(cli::load_environment().cache_max_mb, 0);

    ::unsetenv("PSAFLOW_CACHE_MAX_MB");
    EXPECT_EQ(cli::load_environment().cache_max_mb, 0);
}

// -------------------------------------------------- profile payload codec --

namespace {

interp::ExecutionProfile sample_profile() {
    interp::ExecutionProfile p;
    interp::LoopStats outer;
    outer.entries = 1;
    outer.trips = 64;
    outer.cost = 1234.5;
    outer.self_cost = 12.25;
    outer.flops = 512.0;
    outer.mem_bytes = 4096.0;
    interp::LoopStats inner;
    inner.entries = 64;
    inner.trips = 4096;
    inner.cost = 1200.0;
    inner.self_cost = 1200.0;
    inner.flops = 500.0;
    inner.mem_bytes = 4000.0;
    p.loops[ast::Node::Id{57}] = outer;
    p.loops[ast::Node::Id{91}] = inner;
    p.total_cost = 1250.75;
    p.total_flops = 512.0;
    p.total_call_flops = 16.0;
    p.total_mem_bytes = 4096.0;
    p.focus_function = "kernel";
    p.focus.calls = 3;
    p.focus.cost = 1100.0;
    p.focus.flops = 480.0;
    p.focus.call_flops = 8.0;
    p.focus.mem_bytes = 3900.0;
    interp::BufferAccess buf;
    buf.buffer_name = "data";
    buf.elem_bytes = 8;
    buf.min_read = 0;
    buf.max_read = 63;
    buf.min_write = 1;
    buf.max_write = 62;
    buf.reads = 64;
    buf.writes = 62;
    p.focus.buffers.push_back(buf);
    p.focus.args_alias = true;
    return p;
}

} // namespace

TEST(ProfilePayload, RoundTripKeyedByPosition) {
    const auto profile = sample_profile();
    // The module's pre-order For order: node 57 first, node 91 second.
    const std::vector<ast::Node::Id> loop_order{ast::Node::Id{57},
                                                ast::Node::Id{91}};
    const std::string payload =
        analysis::serialize_profile_payload(profile, loop_order);

    interp::ExecutionProfile loaded;
    std::size_t loop_count = 0;
    ASSERT_TRUE(analysis::parse_profile_payload(payload, loaded, loop_count));
    EXPECT_EQ(loop_count, 2u);

    // Loaded stats are keyed by pre-order position, not original node id.
    const auto* outer = loaded.loop(ast::Node::Id{0});
    const auto* inner = loaded.loop(ast::Node::Id{1});
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->trips, 64);
    EXPECT_EQ(outer->cost, 1234.5);
    EXPECT_EQ(inner->entries, 64);
    EXPECT_EQ(inner->self_cost, 1200.0);

    EXPECT_EQ(loaded.total_cost, profile.total_cost);
    EXPECT_EQ(loaded.total_call_flops, profile.total_call_flops);
    EXPECT_EQ(loaded.focus_function, "kernel");
    EXPECT_EQ(loaded.focus.calls, 3);
    EXPECT_EQ(loaded.focus.mem_bytes, profile.focus.mem_bytes);
    ASSERT_EQ(loaded.focus.buffers.size(), 1u);
    EXPECT_EQ(loaded.focus.buffers[0].buffer_name, "data");
    EXPECT_EQ(loaded.focus.buffers[0].max_read, 63);
    EXPECT_EQ(loaded.focus.buffers[0].writes, 62);
    EXPECT_TRUE(loaded.focus.args_alias);
}

TEST(ProfilePayload, RejectsTruncatedPayload) {
    const std::string payload = analysis::serialize_profile_payload(
        sample_profile(), {ast::Node::Id{57}, ast::Node::Id{91}});
    interp::ExecutionProfile loaded;
    std::size_t loop_count = 0;
    EXPECT_FALSE(analysis::parse_profile_payload(
        std::string_view(payload).substr(0, payload.size() - 3), loaded,
        loop_count));
    EXPECT_FALSE(analysis::parse_profile_payload("", loaded, loop_count));
}

TEST(ProfilePayload, RejectsVersionMismatch) {
    std::string payload = analysis::serialize_profile_payload(
        sample_profile(), {ast::Node::Id{57}});
    payload[0] = static_cast<char>(payload[0] + 1); // bump the u32 version
    interp::ExecutionProfile loaded;
    std::size_t loop_count = 0;
    EXPECT_FALSE(analysis::parse_profile_payload(payload, loaded, loop_count));
}
