#include "flow/payload.hpp"

#include <vector>

namespace psaflow::flow {

namespace {

constexpr std::uint32_t kArtifactPayloadVersion = 2;
constexpr std::uint32_t kFlowResultPayloadVersion = 1;

/// The spec's field list, shared by the artifact key (cas::Hasher) and the
/// flow-result payload (cas::Writer); read_spec mirrors it.
template <class Sink>
void put_spec(Sink& s, const codegen::DesignSpec& spec) {
    s.str(spec.app_name);
    s.str(spec.kernel_name);
    s.u64(static_cast<std::uint64_t>(spec.target));
    s.u64(static_cast<std::uint64_t>(spec.device));
    s.i64(spec.omp_threads);
    s.i64(spec.block_size);
    s.u64(spec.copy_in.size());
    for (const std::string& name : spec.copy_in) s.str(name);
    s.u64(spec.copy_out.size());
    for (const std::string& name : spec.copy_out) s.str(name);
    s.boolean(spec.pinned_host_memory);
    s.boolean(spec.specialised_math);
    s.u64(spec.shared_arrays.size());
    for (const std::string& name : spec.shared_arrays) s.str(name);
    s.i64(spec.unroll);
    s.boolean(spec.zero_copy);
    s.boolean(spec.synthesizable);
    s.boolean(spec.single_precision);
}

/// Reads a length-prefixed list of strings; stops at the first failed
/// read, so a corrupt count cannot spin.
void read_strings(cas::Reader& r, std::vector<std::string>& out) {
    out.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.push_back(r.str());
}

void write_strings(cas::Writer& w, const std::vector<std::string>& list) {
    w.u64(list.size());
    for (const std::string& s : list) w.str(s);
}

void read_spec(cas::Reader& r, codegen::DesignSpec& spec) {
    spec.app_name = r.str();
    spec.kernel_name = r.str();
    spec.target = static_cast<codegen::TargetKind>(r.u64());
    spec.device = static_cast<platform::DeviceId>(r.u64());
    spec.omp_threads = static_cast<int>(r.i64());
    spec.block_size = static_cast<int>(r.i64());
    read_strings(r, spec.copy_in);
    read_strings(r, spec.copy_out);
    spec.pinned_host_memory = r.boolean();
    spec.specialised_math = r.boolean();
    read_strings(r, spec.shared_arrays);
    spec.unroll = static_cast<int>(r.i64());
    spec.zero_copy = r.boolean();
    spec.synthesizable = r.boolean();
    spec.single_precision = r.boolean();
}

/// A design's evaluated fields: everything but its spec and log.
void write_design(cas::Writer& w, const DesignArtifact& a) {
    w.real(a.hotspot_seconds);
    w.real(a.speedup);
    w.real(a.loc_delta);
    w.boolean(a.synthesizable);
    w.str(a.source);
    const platform::KernelShape& s = a.shape;
    w.real(s.flops);
    w.real(s.footprint_bytes);
    w.real(s.stream_bytes);
    w.real(s.bytes_in);
    w.real(s.bytes_out);
    w.real(s.parallel_iters);
    w.real(s.dependent_fraction);
    w.i64(s.regs_per_thread);
    w.boolean(s.double_precision);
    w.real(s.shared_mem_reuse);
    w.real(s.transcendental_fraction);
    w.real(s.gpu_transfer_bytes);
    w.real(s.invocations);
    w.real(s.sequential_cycles_per_iter);
    w.real(s.fpga_stream_bytes);
}

void read_design(cas::Reader& r, DesignArtifact& a) {
    a.hotspot_seconds = r.real();
    a.speedup = r.real();
    a.loc_delta = r.real();
    a.synthesizable = r.boolean();
    a.source = r.str();
    platform::KernelShape& s = a.shape;
    s.flops = r.real();
    s.footprint_bytes = r.real();
    s.stream_bytes = r.real();
    s.bytes_in = r.real();
    s.bytes_out = r.real();
    s.parallel_iters = r.real();
    s.dependent_fraction = r.real();
    s.regs_per_thread = static_cast<int>(r.i64());
    s.double_precision = r.boolean();
    s.shared_mem_reuse = r.real();
    s.transcendental_fraction = r.real();
    s.gpu_transfer_bytes = r.real();
    s.invocations = r.real();
    s.sequential_cycles_per_iter = r.real();
    s.fpga_stream_bytes = r.real();
}

void write_decision(cas::Writer& w, const obs::DecisionRecord& d) {
    w.str(d.branch);
    w.str(d.strategy);
    w.i64(d.feedback_iteration);
    w.u64(d.candidates.size());
    for (const obs::DecisionCandidate& c : d.candidates) {
        w.str(c.path);
        w.boolean(c.selected);
        w.boolean(c.excluded);
        w.real(c.predicted_seconds);
        w.real(c.run_cost);
        w.str(c.evaluation);
    }
    write_strings(w, d.selected);
    w.str(d.rationale);
}

void read_decision(cas::Reader& r, obs::DecisionRecord& d) {
    d.branch = r.str();
    d.strategy = r.str();
    d.feedback_iteration = static_cast<int>(r.i64());
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        obs::DecisionCandidate& c = d.candidates.emplace_back();
        c.path = r.str();
        c.selected = r.boolean();
        c.excluded = r.boolean();
        c.predicted_seconds = r.real();
        c.run_cost = r.real();
        c.evaluation = r.str();
    }
    read_strings(r, d.selected);
    d.rationale = r.str();
}

} // namespace

void hash_spec(cas::Hasher& h, const codegen::DesignSpec& spec) {
    put_spec(h, spec);
}

std::string serialize_artifact_payload(const DesignArtifact& a,
                                       const std::string& note) {
    cas::Writer w;
    w.u32(kArtifactPayloadVersion);
    w.str(note);
    write_design(w, a);
    return w.take();
}

bool parse_artifact_payload(std::string_view payload, DesignArtifact& a,
                            std::string& note) {
    cas::Reader r(payload);
    if (r.u32() != kArtifactPayloadVersion) return false;
    note = r.str();
    read_design(r, a);
    return r.complete();
}

std::string serialize_flow_result(const FlowResult& result) {
    cas::Writer w;
    w.u32(kFlowResultPayloadVersion);
    w.real(result.reference_seconds);
    write_strings(w, result.log);
    w.u64(result.designs.size());
    for (const DesignArtifact& a : result.designs) {
        put_spec(w, a.spec);
        write_design(w, a);
        write_strings(w, a.log);
    }
    w.u64(result.decisions.size());
    for (const obs::DecisionRecord& d : result.decisions) write_decision(w, d);
    return w.take();
}

bool parse_flow_result(std::string_view payload, FlowResult& result) {
    cas::Reader r(payload);
    if (r.u32() != kFlowResultPayloadVersion) return false;
    result.reference_seconds = r.real();
    read_strings(r, result.log);
    const std::uint64_t designs = r.u64();
    for (std::uint64_t i = 0; i < designs && r.ok(); ++i) {
        DesignArtifact& a = result.designs.emplace_back();
        read_spec(r, a.spec);
        read_design(r, a);
        read_strings(r, a.log);
    }
    const std::uint64_t decisions = r.u64();
    for (std::uint64_t i = 0; i < decisions && r.ok(); ++i)
        read_decision(r, result.decisions.emplace_back());
    return r.complete();
}

} // namespace psaflow::flow
