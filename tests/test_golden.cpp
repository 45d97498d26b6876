// Golden-snapshot tests: each of the three emitters (OpenMP, HIP, oneAPI)
// rendered for each of the five paper applications, byte-compared against
// checked-in snapshots in tests/golden/. Any emitter change — intended or
// not — shows up as a readable diff of generated design source.
//
// Update path, after a deliberate emitter change:
//
//   PSAFLOW_UPDATE_GOLDEN=1 ./build/tests/test_golden
//   git diff tests/golden/   # review the emitter diff, then commit it
//
// The snapshots are deterministic: the kernel is the first loop in each app
// that hotspot extraction accepts, and every spec parameter is fixed below.
#include <gtest/gtest.h>

#include <string>

#include "apps/apps.hpp"
#include "ast/clone.hpp"
#include "ast/nodes.hpp"
#include "codegen/codegen.hpp"
#include "codegen/design_spec.hpp"
#include "frontend/parser.hpp"
#include "meta/query.hpp"
#include "platform/devices.hpp"
#include "sema/type_check.hpp"
#include "support/error.hpp"
#include "test_util.hpp"
#include "transform/extract.hpp"

namespace {

using namespace psaflow;

void check_golden(const std::string& app, const std::string& emitter,
                  const std::string& got) {
    psaflow::testing::expect_golden(
        std::string(PSAFLOW_GOLDEN_DIR) + "/" + app + "-" + emitter + ".golden",
        got);
}

/// Parse the app and extract its first extractable loop into `<app>_hot`.
/// Returns the extracted module; `types` is left current for it.
ast::ModulePtr extracted_module(const apps::Application& app,
                                sema::TypeInfo& types) {
    auto base = frontend::parse_module(app.source, app.name);
    const std::size_t n_loops = meta::for_loops(*base).size();
    for (std::size_t i = 0; i < n_loops; ++i) {
        auto clone = ast::clone_module(*base);
        auto loops = meta::for_loops(*clone);
        try {
            sema::TypeInfo ct = sema::check(*clone);
            (void)transform::extract_hotspot(*clone, ct, *loops[i],
                                             app.name + "_hot");
            types = sema::check(*clone);
            return clone;
        } catch (const Error&) {
            continue; // extraction precondition rejected; try the next loop
        }
    }
    ADD_FAILURE() << app.name << ": no extractable loop";
    return nullptr;
}

TEST(Golden, EmittersMatchSnapshots) {
    for (const apps::Application* app : apps::all_applications()) {
        sema::TypeInfo types;
        auto module = extracted_module(*app, types);
        ASSERT_NE(module, nullptr);

        codegen::DesignSpec omp;
        omp.app_name = app->name;
        omp.kernel_name = app->name + "_hot";
        omp.target = codegen::TargetKind::CpuOpenMp;
        omp.omp_threads = 8;
        check_golden(app->name, "openmp",
                     codegen::emit_design(*module, types, omp));

        codegen::DesignSpec hip = omp;
        hip.target = codegen::TargetKind::CpuGpu;
        hip.device = platform::DeviceId::Rtx2080Ti;
        hip.omp_threads = 0;
        hip.block_size = 128;
        check_golden(app->name, "hip",
                     codegen::emit_design(*module, types, hip));

        codegen::DesignSpec sycl = omp;
        sycl.target = codegen::TargetKind::CpuFpga;
        sycl.device = platform::DeviceId::Stratix10;
        sycl.omp_threads = 0;
        sycl.unroll = 4;
        check_golden(app->name, "oneapi",
                     codegen::emit_design(*module, types, sycl));
    }
}

} // namespace
