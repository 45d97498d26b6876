// Disk-backed content-addressed artifact store.
//
// PSA-flows are reusable by design: the same codified flow is re-run across
// applications and revisions, and most task executions (interpreter
// profiles, analyses, per-path design artifacts) are byte-identical across
// runs. PR 1's in-memory profile cache only amortises within one process;
// this store persists memoized results on disk so every later `psaflowc`
// invocation — and every request of a `--batch` manifest — starts warm.
//
// Layout and guarantees:
//   * Entries live under `<root>/<2-hex>/<14-hex>.cas`, sharded by the top
//     byte of the 64-bit content key so no directory grows unbounded.
//   * Writes go to a temp file in the shard directory, named per process
//     and store, and are published with an atomic rename: readers never
//     observe a half-written entry, and concurrent writers of the same
//     key, in one store or in several stores on one root, are harmless
//     (content-addressed entries with equal keys have equal payloads).
//   * Every entry is framed with a magic tag, format version, its own key
//     and an FNV-1a payload checksum. A truncated, bit-flipped or
//     version-mismatched entry is treated as a miss: it is counted under
//     `corrupt`, deleted, and the caller recomputes.
//   * The store is LRU size-capped: when the total payload+header size
//     exceeds `max_bytes`, least-recently-used entries are evicted (reads
//     refresh recency; on open, recency is seeded from file mtimes).
//   * hit/miss/write/evict/corrupt counts are kept per store and mirrored
//     into the trace registry as "cas.hits", "cas.misses", "cas.writes",
//     "cas.evictions", "cas.corrupt".
//   * Every tier (profile, design-artifact, flow-result) reads with get()
//     and writes with put(), so with a remote tier attached each reads
//     through it and publishes to it. Only the wire cas_get/cas_put
//     handlers use get_local()/put_local(): a store serving its peers
//     never asks its own remote tier, so no chain of stores can recurse.
//
// Cache keys are built with `Hasher`, seeded with `engine_version()` so a
// key never aliases across incompatible engine revisions, plus a domain
// tag ("interp-profile", "design-artifact", ...) and the canonical content
// (module print, task id, task params). `Writer`/`Reader` serialise
// payloads with bit-exact doubles, which is what lets a warm run reproduce
// a cold run's FlowResult byte for byte.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace psaflow::cas {

/// Version string hashed into every cache key. Bump when any memoized
/// computation (interpreter, analyses, emitters, perf models) changes
/// observable output: old entries then miss by key and age out via LRU.
[[nodiscard]] constexpr std::string_view engine_version() {
    return "psaflow-engine-1";
}

/// FNV-1a over arbitrary bytes.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Incremental FNV-1a key builder. Each ingest is length-prefixed so
/// concatenation ambiguities ("ab"+"c" vs "a"+"bc") cannot alias keys.
class Hasher {
public:
    Hasher() { str(engine_version()); }

    Hasher& bytes(const void* data, std::size_t size);
    Hasher& str(std::string_view s);
    Hasher& u64(std::uint64_t v);
    Hasher& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
    Hasher& boolean(bool v) { return u64(v ? 1 : 0); }
    /// Bit-pattern hash: distinguishes -0.0/0.0 and NaN payloads, exactly
    /// right for "same inputs" memoization.
    Hasher& real(double v);

    [[nodiscard]] std::uint64_t digest() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Binary payload writer with bit-exact doubles (fixed little-endian-style
/// byte order via memcpy on the host; the cache is a per-machine artifact).
class Writer {
public:
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u32(v ? 1 : 0); }
    void real(double v); ///< serialised as the 64-bit pattern
    void str(std::string_view s);

    [[nodiscard]] const std::string& payload() const { return out_; }
    [[nodiscard]] std::string take() { return std::move(out_); }

private:
    std::string out_;
};

/// Matching reader. Out-of-bounds or malformed reads latch `fail()`;
/// callers check `ok()` (and usually `at_end()`) once after reading.
class Reader {
public:
    explicit Reader(std::string_view payload) : data_(payload) {}

    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] std::int64_t i64() {
        return static_cast<std::int64_t>(u64());
    }
    [[nodiscard]] bool boolean() { return u32() != 0; }
    [[nodiscard]] double real();
    [[nodiscard]] std::string str();

    [[nodiscard]] bool ok() const { return !failed_; }
    [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
    /// ok() and fully consumed — the payload parsed exactly.
    [[nodiscard]] bool complete() const { return ok() && at_end(); }

private:
    bool take(void* out, std::size_t n);

    std::string_view data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

struct CasStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t remote_hits = 0;   ///< local miss satisfied by the remote tier
    std::uint64_t remote_misses = 0; ///< consulted the remote tier, not there
    std::uint64_t remote_puts = 0;   ///< payloads published to the remote tier
};

/// Hooks onto a remote artifact tier (cluster/remote_cas implements them
/// over the wire). `fetch` returns the payload or nullopt; `publish`
/// returns false on transport failure (best-effort — the local entry is
/// already durable).
using RemoteFetch =
    std::function<std::optional<std::string>(std::uint64_t key)>;
using RemotePublish =
    std::function<bool(std::uint64_t key, std::string_view payload)>;

class CasStore {
public:
    /// On-disk entry format revision (frame layout, not payload schema).
    static constexpr std::uint32_t kFormatVersion = 1;
    static constexpr std::uint64_t kDefaultMaxBytes = 256ull << 20;

    /// Opens (creating directories as needed) a store rooted at `root`.
    /// Existing entries are indexed by scanning the shard directories;
    /// recency is seeded from file modification times.
    explicit CasStore(std::filesystem::path root,
                      std::uint64_t max_bytes = kDefaultMaxBytes);

    /// Checksum-verified read. Corrupt / truncated / version-mismatched
    /// entries are deleted and reported as a miss. With a remote tier
    /// attached, a local miss consults it and a remote hit is written
    /// through to disk — the disk tier is a read-through cache of the
    /// shared tier.
    [[nodiscard]] std::optional<std::string> get(std::uint64_t key);

    /// Local-disk-only read: never consults the remote tier. This is what
    /// the wire `cas_get` handler serves, so a chain of stores can never
    /// recurse through each other.
    [[nodiscard]] std::optional<std::string> get_local(std::uint64_t key);

    /// Atomic (write-temp-then-rename) insert; evicts LRU entries past the
    /// size cap afterwards. Re-putting an existing key refreshes recency.
    /// With a remote tier attached, the payload is also published upstream
    /// (best-effort, outside the store lock).
    void put(std::uint64_t key, std::string_view payload);

    /// Local-disk-only insert (the read-through path and the wire
    /// `cas_put` handler; never republishes upstream).
    void put_local(std::uint64_t key, std::string_view payload);

    /// Attach (or with empty functions, detach) a remote artifact tier.
    void set_remote(RemoteFetch fetch, RemotePublish publish);

    /// Evict everything (used by tests and `psaflowc --cache-clear`).
    void clear();

    [[nodiscard]] const std::filesystem::path& root() const { return root_; }
    [[nodiscard]] CasStats stats() const;
    /// Total bytes of indexed entries (headers included).
    [[nodiscard]] std::uint64_t size_bytes() const;
    [[nodiscard]] std::uint64_t max_bytes() const { return max_bytes_; }

private:
    struct IndexEntry {
        std::uint64_t key = 0;
        std::uint64_t bytes = 0;
    };
    /// LRU list, least-recently-used first, with a key -> node map.
    using LruList = std::list<IndexEntry>;

    [[nodiscard]] std::filesystem::path entry_path(std::uint64_t key) const;
    void scan_existing();
    void touch_locked(std::uint64_t key, std::uint64_t bytes);
    void erase_locked(std::uint64_t key);
    void evict_to_cap_locked();
    void remove_entry_file(std::uint64_t key);

    std::filesystem::path root_;
    /// ".tmp-<pid>-<this>-": stores sharing a root never share temp files.
    std::string tmp_prefix_;
    mutable std::mutex mu_;
    mutable std::mutex remote_mu_; ///< guards the hook pair only
    RemoteFetch remote_fetch_;
    RemotePublish remote_publish_;
    const std::uint64_t max_bytes_;
    std::uint64_t total_bytes_ = 0;
    std::uint64_t tmp_counter_ = 0;
    LruList lru_;
    std::unordered_map<std::uint64_t, LruList::iterator> index_;
    CasStats stats_;
};

/// Largest accepted size cap in MiB: the largest count whose byte total
/// still fits in 64 bits.
inline constexpr long long kMaxCacheMb = (1LL << 44) - 1;

} // namespace psaflow::cas
