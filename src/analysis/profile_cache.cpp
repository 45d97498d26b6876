#include "analysis/profile_cache.hpp"

#include <cstdlib>
#include <cstring>

#include "ast/printer.hpp"
#include "ast/walk.hpp"
#include "support/cas/cas.hpp"
#include "support/trace.hpp"

namespace psaflow::analysis {

namespace {

void hash_bytes(std::uint64_t& h, const void* data, std::size_t size) {
    h = fnv1a(data, size, h);
}

void hash_u64(std::uint64_t& h, std::uint64_t v) {
    hash_bytes(h, &v, sizeof v);
}

void hash_double(std::uint64_t& h, double v) {
    // Bit-pattern hash: distinguishes -0.0/0.0 and NaN payloads, which is
    // exactly right for "same inputs" memoization.
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    hash_u64(h, bits);
}

/// The interpreter run behind a miss (or a disabled cache), in its own
/// engine-tagged span so a trace tells a real run from a cache hit.
interp::RunResult profiled_run(const ast::Module& module,
                               const sema::TypeInfo& types,
                               const std::string& entry,
                               const std::vector<interp::Arg>& args,
                               const interp::InterpOptions& options) {
    trace::ScopedSpan span(
        "run_function:" + entry,
        interp::engine_category(
            options.engine.value_or(interp::default_engine())));
    auto result = interp::run_function(module, types, entry, args, options);
    span.set_work_units(result.profile.total_cost);
    return result;
}

/// Pre-order For-node ids of the whole module.
std::vector<ast::Node::Id> loop_id_order(const ast::Module& module) {
    std::vector<ast::Node::Id> out;
    ast::walk(static_cast<const ast::Node&>(module),
              [&](const ast::Node& n) {
                  if (n.kind() == ast::NodeKind::For) out.push_back(n.id);
                  return true;
              });
    return out;
}

} // namespace

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t digest_args(const std::vector<interp::Arg>& args) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    hash_u64(h, args.size());
    for (const interp::Arg& arg : args) {
        if (const auto* value = std::get_if<interp::Value>(&arg)) {
            hash_u64(h, 0x5163414c41435321ULL); // scalar marker
            hash_u64(h, static_cast<std::uint64_t>(value->type()));
            switch (value->type()) {
                case ast::Type::Int:
                    hash_u64(h, static_cast<std::uint64_t>(value->as_int()));
                    break;
                case ast::Type::Bool:
                    hash_u64(h, value->as_bool() ? 1 : 0);
                    break;
                case ast::Type::Float:
                case ast::Type::Double:
                    hash_double(h, value->as_double());
                    break;
                default: break; // void: type tag alone suffices
            }
        } else {
            const interp::BufferPtr& buf = std::get<interp::BufferPtr>(arg);
            hash_u64(h, 0x425546464552211fULL); // buffer marker
            hash_u64(h, static_cast<std::uint64_t>(buf->elem_type()));
            hash_u64(h, buf->size());
            const std::vector<double>& raw = buf->raw();
            hash_bytes(h, raw.data(), raw.size() * sizeof(double));
        }
    }
    return h;
}

namespace {
/// Payload schema revision for serialize_profile_payload.
constexpr std::uint32_t kProfilePayloadVersion = 1;
} // namespace

std::string
serialize_profile_payload(const interp::ExecutionProfile& profile,
                          const std::vector<ast::Node::Id>& loop_order) {
    cas::Writer w;
    w.u32(kProfilePayloadVersion);
    w.u64(loop_order.size());

    // Loop stats in pre-order position order (deterministic payload bytes
    // for identical profiles, independent of hash-map iteration order).
    std::uint32_t with_stats = 0;
    for (ast::Node::Id id : loop_order)
        if (profile.loops.count(id) != 0) ++with_stats;
    w.u32(with_stats);
    for (std::size_t pos = 0; pos < loop_order.size(); ++pos) {
        auto it = profile.loops.find(loop_order[pos]);
        if (it == profile.loops.end()) continue;
        const interp::LoopStats& stats = it->second;
        w.u64(pos);
        w.i64(stats.entries);
        w.i64(stats.trips);
        w.real(stats.cost);
        w.real(stats.self_cost);
        w.real(stats.flops);
        w.real(stats.mem_bytes);
    }

    w.real(profile.total_cost);
    w.real(profile.total_flops);
    w.real(profile.total_call_flops);
    w.real(profile.total_mem_bytes);

    w.str(profile.focus_function);
    w.i64(profile.focus_calls);
    w.real(profile.focus_cost);
    w.real(profile.focus_flops);
    w.real(profile.focus_call_flops);
    w.real(profile.focus_mem_bytes);
    w.u32(static_cast<std::uint32_t>(profile.focus_buffers.size()));
    for (const interp::BufferAccess& buf : profile.focus_buffers) {
        w.str(buf.buffer_name);
        w.i64(buf.elem_bytes);
        w.i64(buf.min_read);
        w.i64(buf.max_read);
        w.i64(buf.min_write);
        w.i64(buf.max_write);
        w.i64(buf.reads);
        w.i64(buf.writes);
    }
    w.boolean(profile.focus_args_alias);
    return w.take();
}

bool parse_profile_payload(std::string_view payload,
                           interp::ExecutionProfile& profile,
                           std::size_t& loop_count) {
    cas::Reader r(payload);
    if (r.u32() != kProfilePayloadVersion) return false;
    const std::uint64_t loops = r.u64();
    if (!r.ok() || loops > (1u << 20)) return false;
    loop_count = static_cast<std::size_t>(loops);

    profile = interp::ExecutionProfile{};
    const std::uint32_t with_stats = r.u32();
    for (std::uint32_t i = 0; i < with_stats && r.ok(); ++i) {
        const std::uint64_t pos = r.u64();
        interp::LoopStats stats;
        stats.entries = r.i64();
        stats.trips = r.i64();
        stats.cost = r.real();
        stats.self_cost = r.real();
        stats.flops = r.real();
        stats.mem_bytes = r.real();
        if (pos >= loops) return false;
        profile.loops.emplace(static_cast<ast::Node::Id>(pos), stats);
    }

    profile.total_cost = r.real();
    profile.total_flops = r.real();
    profile.total_call_flops = r.real();
    profile.total_mem_bytes = r.real();

    profile.focus_function = r.str();
    profile.focus_calls = r.i64();
    profile.focus_cost = r.real();
    profile.focus_flops = r.real();
    profile.focus_call_flops = r.real();
    profile.focus_mem_bytes = r.real();
    const std::uint32_t buffers = r.u32();
    if (!r.ok() || buffers > (1u << 16)) return false;
    profile.focus_buffers.reserve(buffers);
    for (std::uint32_t i = 0; i < buffers && r.ok(); ++i) {
        interp::BufferAccess buf;
        buf.buffer_name = r.str();
        buf.elem_bytes = static_cast<int>(r.i64());
        buf.min_read = r.i64();
        buf.max_read = r.i64();
        buf.min_write = r.i64();
        buf.max_write = r.i64();
        buf.reads = r.i64();
        buf.writes = r.i64();
        profile.focus_buffers.push_back(std::move(buf));
    }
    profile.focus_args_alias = r.boolean();
    return r.complete();
}

ProfileCache::ProfileCache() {
    if (const char* env = std::getenv("PSAFLOW_CACHE"))
        enabled_ = std::string(env) != "0";
}

ProfileCache& ProfileCache::global() {
    static ProfileCache cache;
    return cache;
}

void ProfileCache::set_enabled(bool on) {
    std::lock_guard lock(mu_);
    enabled_ = on;
}

bool ProfileCache::enabled() const {
    std::lock_guard lock(mu_);
    return enabled_;
}

void ProfileCache::clear() {
    std::lock_guard lock(mu_);
    entries_.clear();
    stats_ = {};
}

ProfileCacheStats ProfileCache::stats() const {
    std::lock_guard lock(mu_);
    return stats_;
}

void ProfileCache::set_max_entries(std::size_t n) {
    std::lock_guard lock(mu_);
    max_entries_ = n;
}

std::optional<interp::ExecutionProfile>
ProfileCache::remap_onto(const Entry& entry, const ast::Module& module) {
    const std::vector<ast::Node::Id> current = loop_id_order(module);
    if (current.size() != entry.loop_order.size()) return std::nullopt;
    interp::ExecutionProfile profile = entry.profile;
    std::unordered_map<ast::Node::Id, interp::LoopStats> remapped;
    remapped.reserve(profile.loops.size());
    for (std::size_t i = 0; i < current.size(); ++i) {
        auto stats = profile.loops.find(entry.loop_order[i]);
        if (stats != profile.loops.end())
            remapped.emplace(current[i], stats->second);
    }
    profile.loops = std::move(remapped);
    return profile;
}

interp::ExecutionProfile
ProfileCache::run(const ast::Module& module, const sema::TypeInfo& types,
                  const std::string& entry,
                  const std::vector<interp::Arg>& args,
                  interp::InterpOptions options) {
    options.profile = true;

    if (!enabled())
        return profiled_run(module, types, entry, args, options).profile;

    // Keyed on the pragma-free print: pragmas never reach the interpreter,
    // so modules that differ only in pragmas share one profile.
    cas::Hasher hasher;
    hasher.str("interp-profile");
    hasher.str(ast::to_source_without_pragmas(module));
    hasher.str(entry);
    hasher.str(options.focus_function);
    hasher.u64(static_cast<std::uint64_t>(options.max_steps));
    hasher.u64(digest_args(args));
    const std::uint64_t key = hasher.digest();

    {
        std::lock_guard lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Remap loop stats onto this module's (possibly re-cloned) node
            // ids by pre-order position.
            if (auto profile = remap_onto(it->second, module)) {
                ++stats_.hits;
                trace::Registry::current().count("profile_cache.hits", 1);
                return std::move(*profile);
            }
            // Structure mismatch despite equal (pragma-free) source text
            // should be impossible; recompute defensively.
        }
    }

    // In-memory miss: consult the persistent content-addressed store. A
    // disk hit is promoted into the memory map (position-keyed, exactly as
    // serialised) so later lookups in this process are memory hits.
    cas::CasStore* disk = cas::store();
    if (disk != nullptr) {
        if (auto payload = disk->get(key)) {
            Entry loaded;
            std::size_t loop_count = 0;
            if (parse_profile_payload(*payload, loaded.profile, loop_count)) {
                loaded.loop_order.resize(loop_count);
                for (std::size_t i = 0; i < loop_count; ++i)
                    loaded.loop_order[i] = static_cast<ast::Node::Id>(i);
                if (auto profile = remap_onto(loaded, module)) {
                    std::lock_guard lock(mu_);
                    ++stats_.disk_hits;
                    if (max_entries_ != 0 && entries_.size() >= max_entries_)
                        entries_.clear();
                    entries_[key] = std::move(loaded);
                    trace::Registry::current().count(
                        "profile_cache.disk_hits", 1);
                    return std::move(*profile);
                }
            }
            // Unparseable or structurally mismatched payload (e.g. written
            // by a differently-versioned binary racing on the same dir):
            // fall through and recompute.
        }
    }

    auto result = profiled_run(module, types, entry, args, options);
    const std::vector<ast::Node::Id> loop_order = loop_id_order(module);

    {
        std::lock_guard lock(mu_);
        ++stats_.misses;
        if (max_entries_ != 0 && entries_.size() >= max_entries_)
            entries_.clear();
        Entry& slot = entries_[key];
        slot.profile = result.profile;
        slot.loop_order = loop_order;
    }
    trace::Registry::current().count("profile_cache.misses", 1);
    if (disk != nullptr)
        disk->put(key, serialize_profile_payload(result.profile, loop_order));
    return std::move(result.profile);
}

} // namespace psaflow::analysis
