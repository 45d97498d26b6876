// The device registry: concrete specifications of the paper's evaluation
// platforms. Architectural parameters (core counts, clocks, register files,
// resource counts) follow the published hardware specs; effectiveness
// factors (sustained-vs-peak efficiency, achievable bandwidths) are
// calibration constants documented in EXPERIMENTS.md.
#pragma once

#include <string>

#include "platform/cpu.hpp"
#include "platform/fpga.hpp"
#include "platform/gpu.hpp"

namespace psaflow::platform {

/// Device identifiers used throughout the flow and the benches.
enum class DeviceId {
    Epyc7543,     ///< AMD EPYC 7543, 32 cores @ 2.8 GHz
    Gtx1080Ti,    ///< NVIDIA GeForce GTX 1080 Ti (Pascal)
    Rtx2080Ti,    ///< NVIDIA GeForce RTX 2080 Ti (Turing)
    Arria10,      ///< Intel PAC with Arria 10 GX 1150
    Stratix10,    ///< Intel Stratix 10 SX 2800 (USM-capable)
};

[[nodiscard]] const char* to_string(DeviceId id);

/// EPYC 7543 host CPU (both the reference single-thread platform and the
/// OpenMP target).
[[nodiscard]] const CpuSpec& epyc7543();

[[nodiscard]] const GpuSpec& gtx1080ti();
[[nodiscard]] const GpuSpec& rtx2080ti();

[[nodiscard]] const FpgaSpec& arria10();
[[nodiscard]] const FpgaSpec& stratix10();

[[nodiscard]] const GpuSpec& gpu_spec(DeviceId id);
[[nodiscard]] const FpgaSpec& fpga_spec(DeviceId id);

} // namespace psaflow::platform
