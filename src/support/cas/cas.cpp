#include "support/cas/cas.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "obs/log.hpp"
#include "support/trace.hpp"

namespace psaflow::cas {

namespace fs = std::filesystem;

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ----------------------------------------------------------------- Hasher --

Hasher& Hasher::bytes(const void* data, std::size_t size) {
    u64(size);
    h_ = fnv1a(data, size, h_);
    return *this;
}

Hasher& Hasher::str(std::string_view s) { return bytes(s.data(), s.size()); }

Hasher& Hasher::u64(std::uint64_t v) {
    h_ = fnv1a(&v, sizeof v, h_);
    return *this;
}

Hasher& Hasher::real(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
}

// ---------------------------------------------------------- Writer/Reader --

void Writer::u32(std::uint32_t v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void Writer::u64(std::uint64_t v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void Writer::real(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void Writer::str(std::string_view s) {
    u64(s.size());
    out_.append(s.data(), s.size());
}

bool Reader::take(void* out, std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
        failed_ = true;
        return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
}

std::uint32_t Reader::u32() {
    std::uint32_t v = 0;
    take(&v, sizeof v);
    return v;
}

std::uint64_t Reader::u64() {
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
}

double Reader::real() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string Reader::str() {
    const std::uint64_t n = u64();
    if (failed_ || data_.size() - pos_ < n) {
        failed_ = true;
        return {};
    }
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
}

// --------------------------------------------------------------- CasStore --

namespace {

constexpr char kMagic[8] = {'P', 'S', 'A', 'C', 'A', 'S', '\x01', '\n'};

struct EntryHeader {
    char magic[8];
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t key;
    std::uint64_t payload_size;
    std::uint64_t payload_checksum;
};
static_assert(sizeof(EntryHeader) == 40, "entry header layout");

std::string hex16(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

std::optional<std::uint64_t> parse_hex16(std::string_view s) {
    if (s.size() != 16) return std::nullopt;
    std::uint64_t v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else return std::nullopt;
    }
    return v;
}

void count(const char* name, std::uint64_t delta) {
    trace::Registry::current().count(name, delta);
}

} // namespace

CasStore::CasStore(fs::path root, std::uint64_t max_bytes)
    : root_(std::move(root)),
      tmp_prefix_(".tmp-" + std::to_string(::getpid()) + "-" +
                  hex16(reinterpret_cast<std::uintptr_t>(this)) + "-"),
      max_bytes_(max_bytes == 0 ? kDefaultMaxBytes : max_bytes) {
    std::error_code ec;
    fs::create_directories(root_, ec);
    scan_existing();
}

fs::path CasStore::entry_path(std::uint64_t key) const {
    const std::string hex = hex16(key);
    return root_ / hex.substr(0, 2) / (hex.substr(2) + ".cas");
}

void CasStore::scan_existing() {
    // Seed the LRU index from what is already on disk, oldest mtime first,
    // so a reopened store evicts in (approximate) historical access order.
    struct Found {
        std::uint64_t key;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Found> found;
    std::error_code ec;
    for (const auto& shard : fs::directory_iterator(root_, ec)) {
        if (!shard.is_directory(ec)) continue;
        const std::string prefix = shard.path().filename().string();
        if (prefix.size() != 2) continue;
        for (const auto& file : fs::directory_iterator(shard.path(), ec)) {
            if (!file.is_regular_file(ec)) continue;
            if (file.path().extension() != ".cas") continue;
            const auto key = parse_hex16(prefix + file.path().stem().string());
            if (!key) continue;
            Found f;
            f.key = *key;
            f.bytes = file.file_size(ec);
            if (ec) continue;
            f.mtime = file.last_write_time(ec);
            if (ec) f.mtime = fs::file_time_type::min();
            found.push_back(f);
        }
    }
    std::sort(found.begin(), found.end(),
              [](const Found& a, const Found& b) { return a.mtime < b.mtime; });
    for (const Found& f : found) {
        lru_.push_back(IndexEntry{f.key, f.bytes});
        index_[f.key] = std::prev(lru_.end());
        total_bytes_ += f.bytes;
    }
}

void CasStore::touch_locked(std::uint64_t key, std::uint64_t bytes) {
    auto it = index_.find(key);
    if (it != index_.end()) {
        total_bytes_ -= it->second->bytes;
        lru_.erase(it->second);
    }
    lru_.push_back(IndexEntry{key, bytes});
    index_[key] = std::prev(lru_.end());
    total_bytes_ += bytes;
}

void CasStore::erase_locked(std::uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    total_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
}

void CasStore::remove_entry_file(std::uint64_t key) {
    std::error_code ec;
    fs::remove(entry_path(key), ec);
}

void CasStore::evict_to_cap_locked() {
    // Never evict the most-recently-touched entry (the one a put just
    // published): an oversized single payload is kept rather than looping.
    while (total_bytes_ > max_bytes_ && lru_.size() > 1) {
        const IndexEntry victim = lru_.front();
        erase_locked(victim.key);
        remove_entry_file(victim.key);
        ++stats_.evictions;
        count("cas.evictions", 1);
    }
}

std::optional<std::string> CasStore::get(std::uint64_t key) {
    if (auto local = get_local(key); local.has_value()) return local;

    // Local miss: consult the remote tier, outside every store lock (the
    // fetch is a network round-trip). A remote hit is written through to
    // the local disk tier so the next read is local — and deliberately not
    // republished upstream.
    RemoteFetch fetch;
    {
        std::lock_guard lock(remote_mu_);
        fetch = remote_fetch_;
    }
    if (!fetch) return std::nullopt;
    std::optional<std::string> remote = fetch(key);
    {
        std::lock_guard lock(mu_);
        if (remote.has_value()) {
            ++stats_.remote_hits;
            count("cas.remote_hits", 1);
        } else {
            ++stats_.remote_misses;
            count("cas.remote_misses", 1);
        }
    }
    if (!remote.has_value()) return std::nullopt;
    put_local(key, *remote);
    return remote;
}

std::optional<std::string> CasStore::get_local(std::uint64_t key) {
    std::lock_guard lock(mu_);
    const fs::path path = entry_path(key);

    std::string blob;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            ++stats_.misses;
            count("cas.misses", 1);
            // The file may have been removed behind our back (another
            // process evicted it); drop any stale index entry.
            erase_locked(key);
            return std::nullopt;
        }
        std::ostringstream os;
        os << in.rdbuf();
        blob = std::move(os).str();
    }

    auto corrupt_miss = [&]() -> std::optional<std::string> {
        ++stats_.corrupt;
        ++stats_.misses;
        count("cas.corrupt", 1);
        count("cas.misses", 1);
        // Not silent: an operator seeing repeated corruption wants the
        // path, not just a counter tick.
        obs::warn("cas", "corrupt cache entry evicted",
                  {{"path", path.string()},
                   {"bytes", std::to_string(blob.size())}});
        erase_locked(key);
        remove_entry_file(key);
        return std::nullopt;
    };

    if (blob.size() < sizeof(EntryHeader)) return corrupt_miss();
    EntryHeader header;
    std::memcpy(&header, blob.data(), sizeof header);
    if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0)
        return corrupt_miss();
    if (header.version != kFormatVersion) return corrupt_miss();
    if (header.key != key) return corrupt_miss();
    if (blob.size() - sizeof(EntryHeader) != header.payload_size)
        return corrupt_miss();
    std::string payload = blob.substr(sizeof(EntryHeader));
    if (fnv1a(payload.data(), payload.size()) != header.payload_checksum)
        return corrupt_miss();

    touch_locked(key, blob.size());
    // Refresh mtime so a future process's scan sees this entry as recent.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);

    ++stats_.hits;
    count("cas.hits", 1);
    return payload;
}

void CasStore::put(std::uint64_t key, std::string_view payload) {
    put_local(key, payload);

    RemotePublish publish;
    {
        std::lock_guard lock(remote_mu_);
        publish = remote_publish_;
    }
    if (!publish) return;
    if (publish(key, payload)) {
        std::lock_guard lock(mu_);
        ++stats_.remote_puts;
        count("cas.remote_puts", 1);
    }
}

void CasStore::put_local(std::uint64_t key, std::string_view payload) {
    std::lock_guard lock(mu_);

    EntryHeader header{};
    std::memcpy(header.magic, kMagic, sizeof kMagic);
    header.version = kFormatVersion;
    header.key = key;
    header.payload_size = payload.size();
    header.payload_checksum = fnv1a(payload.data(), payload.size());

    const fs::path path = entry_path(key);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);

    // A temp name no other live store can pick, in this process or
    // another; the final rename is atomic, so two racing writers of the
    // same key both succeed and (being content-addressed) publish
    // identical bytes.
    const fs::path tmp =
        path.parent_path() /
        (tmp_prefix_ + hex16(key) + "-" + std::to_string(++tmp_counter_));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return; // unwritable cache dir: silently skip persisting
        out.write(reinterpret_cast<const char*>(&header), sizeof header);
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            out.close();
            fs::remove(tmp, ec);
            return;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return;
    }

    touch_locked(key, sizeof header + payload.size());
    ++stats_.writes;
    count("cas.writes", 1);
    evict_to_cap_locked();
}

void CasStore::clear() {
    std::lock_guard lock(mu_);
    for (const IndexEntry& entry : lru_) remove_entry_file(entry.key);
    lru_.clear();
    index_.clear();
    total_bytes_ = 0;
}

CasStats CasStore::stats() const {
    std::lock_guard lock(mu_);
    return stats_;
}

std::uint64_t CasStore::size_bytes() const {
    std::lock_guard lock(mu_);
    return total_bytes_;
}

void CasStore::set_remote(RemoteFetch fetch, RemotePublish publish) {
    std::lock_guard lock(remote_mu_);
    remote_fetch_ = std::move(fetch);
    remote_publish_ = std::move(publish);
}

} // namespace psaflow::cas
