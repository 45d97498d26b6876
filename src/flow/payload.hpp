// Persistent-store payloads of the flow engine's two cache tiers:
//
//   * design-artifact: one finalized leaf design, keyed in engine.cpp on
//     the task signature, module print, spec, FPGA report and workload;
//   * flow-result: a whole FlowResult, keyed in core/psaflow.cpp on every
//     input a compile reads, so a fully cached compile is one store read.
//
// Both serialise with cas::Writer / cas::Reader (bit-exact doubles) behind
// a payload version: a version or parse mismatch reads as a miss and the
// caller recomputes, so a restored result is byte-identical to a cold one.
#pragma once

#include <string>
#include <string_view>

#include "codegen/design_spec.hpp"
#include "flow/engine.hpp"
#include "support/cas/cas.hpp"

namespace psaflow::flow {

/// Mix every field of `spec` into `h` (the artifact key's spec part).
void hash_spec(cas::Hasher& h, const codegen::DesignSpec& spec);

/// One leaf design minus its spec and log (finalize restores those from
/// the live context), plus the note finalize logged for it.
[[nodiscard]] std::string serialize_artifact_payload(const DesignArtifact& a,
                                                     const std::string& note);
[[nodiscard]] bool parse_artifact_payload(std::string_view payload,
                                          DesignArtifact& a,
                                          std::string& note);

/// A whole FlowResult: every design with its spec, shape, source and log,
/// the reference time, the prologue log and the decision records.
[[nodiscard]] std::string serialize_flow_result(const FlowResult& result);
[[nodiscard]] bool parse_flow_result(std::string_view payload,
                                     FlowResult& result);

} // namespace psaflow::flow
