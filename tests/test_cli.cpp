// End-to-end error-path tests for the psaflowc driver: every malformed
// invocation must exit with status 2 and print the usage banner, never
// crash or silently proceed. The binary path comes from CMake
// ($<TARGET_FILE:psaflowc>), so the test always runs the freshly built
// driver.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/wait.h>

namespace {

struct CliResult {
    int exit_code = -1;
    std::string output; ///< stdout and stderr, interleaved
};

CliResult run_cli(const std::string& flags) {
    const std::string cmd =
        std::string(PSAFLOW_PSAFLOWC_PATH) + " " + flags + " 2>&1";
    CliResult result;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return result;
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        result.output.append(buf.data(), n);
    const int status = pclose(pipe);
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    return result;
}

void expect_usage_error(const std::string& flags) {
    const CliResult r = run_cli(flags);
    EXPECT_EQ(r.exit_code, 2) << "flags: " << flags << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos)
        << "flags: " << flags << "\n" << r.output;
}

TEST(Cli, NoArgumentsPrintsUsage) { expect_usage_error(""); }

TEST(Cli, UnknownFlagPrintsUsage) { expect_usage_error("--frobnicate"); }

TEST(Cli, MalformedJobsValue) {
    expect_usage_error("--app nbody --jobs abc");
}

TEST(Cli, NegativeJobsValue) {
    const CliResult r = run_cli("--app nbody --jobs -1");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("--jobs must be >= 0"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(Cli, MalformedBudgetValue) {
    expect_usage_error("--app nbody --budget nope");
}

TEST(Cli, TraceOutMissingValue) {
    expect_usage_error("--app nbody --trace-out");
}

TEST(Cli, UnknownAppFails) {
    const CliResult r = run_cli("--app no_such_app");
    EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Cli, ListSucceeds) {
    const CliResult r = run_cli("--list");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("nbody"), std::string::npos) << r.output;
}

// ------------------------------------------------------------- batch mode ----

namespace fs = std::filesystem;

/// Scratch directory for one batch test, removed on destruction.
struct BatchDir {
    fs::path path;

    explicit BatchDir(const std::string& name) {
        path = fs::path(testing::TempDir()) / ("psaflowc-batch-" + name);
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~BatchDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    [[nodiscard]] fs::path write(const std::string& file,
                                 const std::string& text) const {
        const fs::path p = path / file;
        std::ofstream out(p);
        out << text;
        return p;
    }
};

std::string slurp(const fs::path& p) {
    std::ifstream in(p);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(CliBatch, MissingManifestFileFails) {
    const CliResult r = run_cli("--batch /no/such/manifest.json");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(CliBatch, MalformedManifestFails) {
    BatchDir dir("malformed");
    const auto manifest = dir.write("manifest.json", "{\"requests\": [,]}");
    const CliResult r = run_cli("--batch " + manifest.string());
    EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(CliBatch, DeeplyNestedManifestFailsWithoutCrashing) {
    // 2 MB of '[' overflows the stack of a recursive JSON parser without a
    // depth cap; with the cap it is an ordinary malformed-manifest exit.
    BatchDir dir("nested");
    const auto manifest =
        dir.write("manifest.json", std::string(2u << 20, '['));
    const CliResult r = run_cli("--batch " + manifest.string());
    EXPECT_EQ(r.exit_code, 2) << r.output; // -1 would mean a signal
    EXPECT_NE(r.output.find("nesting"), std::string::npos) << r.output;
}

TEST(CliBatch, RequestWithoutAppFails) {
    BatchDir dir("noapp");
    const auto manifest =
        dir.write("manifest.json", R"({"requests": [{"mode": "informed"}]})");
    const CliResult r = run_cli("--batch " + manifest.string());
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("app"), std::string::npos) << r.output;
}

TEST(CliBatch, MatchesSingleAppRunByteForByte) {
    BatchDir dir("identity");
    const fs::path single_out = dir.path / "single";
    const fs::path batch_out = dir.path / "batch";
    const CliResult single = run_cli("--app adpredictor --out " +
                                     single_out.string());
    ASSERT_EQ(single.exit_code, 0) << single.output;

    const auto manifest = dir.write(
        "manifest.json",
        "{\"out\": \"" + batch_out.string() + "\", \"requests\": [{\"app\": "
        "\"adpredictor\"}]}");
    const CliResult batch = run_cli("--batch " + manifest.string());
    ASSERT_EQ(batch.exit_code, 0) << batch.output;
    EXPECT_NE(batch.output.find("1/1 request(s) succeeded"),
              std::string::npos)
        << batch.output;

    // Identical designs and summary, request output under <out>/<app>-<i>.
    const fs::path req_out = batch_out / "adpredictor-0";
    ASSERT_TRUE(fs::exists(req_out / "adpredictor-summary.csv"));
    for (const auto& entry : fs::directory_iterator(single_out)) {
        const fs::path batch_file = req_out / entry.path().filename();
        ASSERT_TRUE(fs::exists(batch_file)) << batch_file;
        EXPECT_EQ(slurp(entry.path()), slurp(batch_file))
            << entry.path().filename();
    }
}

TEST(CliBatch, FailedRequestIsIsolated) {
    BatchDir dir("isolated");
    const auto manifest = dir.write(
        "manifest.json",
        "{\"out\": \"" + (dir.path / "out").string() +
            "\", \"requests\": [{\"app\": \"adpredictor\"}, "
            "{\"app\": \"no_such_app\"}]}");
    const CliResult r = run_cli("--batch " + manifest.string());
    EXPECT_EQ(r.exit_code, 1) << r.output; // some requests failed
    EXPECT_NE(r.output.find("1/2 request(s) succeeded"), std::string::npos)
        << r.output;
    // The good request still produced its outputs.
    EXPECT_TRUE(
        fs::exists(dir.path / "out" / "adpredictor-0" /
                   "adpredictor-summary.csv"))
        << r.output;
}

TEST(CliBatch, WarmCacheRunIsIdentical) {
    BatchDir dir("warm");
    const fs::path cache = dir.path / "cache";
    const fs::path cold_out = dir.path / "cold";
    const fs::path warm_out = dir.path / "warm";
    const std::string common =
        "--app adpredictor --cache-dir " + cache.string() + " --out ";

    const CliResult cold = run_cli(common + cold_out.string());
    ASSERT_EQ(cold.exit_code, 0) << cold.output;
    const CliResult warm = run_cli(common + warm_out.string());
    ASSERT_EQ(warm.exit_code, 0) << warm.output;

    // Identical stdout up to the differing --out directory names.
    auto normalised = [](std::string text, const std::string& dir) {
        for (std::size_t pos = text.find(dir); pos != std::string::npos;
             pos = text.find(dir, pos))
            text.replace(pos, dir.size(), "<out>");
        return text;
    };
    EXPECT_EQ(normalised(cold.output, cold_out.string()),
              normalised(warm.output, warm_out.string()));

    for (const auto& entry : fs::directory_iterator(cold_out)) {
        const fs::path warm_file = warm_out / entry.path().filename();
        ASSERT_TRUE(fs::exists(warm_file)) << warm_file;
        EXPECT_EQ(slurp(entry.path()), slurp(warm_file))
            << entry.path().filename();
    }
}

TEST(CliBatch, CacheClearEmptiesTheStore) {
    BatchDir dir("clear");
    const fs::path cache = dir.path / "cache";
    const CliResult fill = run_cli("--app adpredictor --cache-dir " +
                                   cache.string() + " --out " +
                                   (dir.path / "out").string());
    ASSERT_EQ(fill.exit_code, 0) << fill.output;

    bool had_entries = false;
    for (const auto& entry : fs::recursive_directory_iterator(cache)) {
        if (entry.is_regular_file()) had_entries = true;
    }
    EXPECT_TRUE(had_entries);

    const CliResult clear =
        run_cli("--cache-clear --cache-dir " + cache.string());
    EXPECT_EQ(clear.exit_code, 0) << clear.output;
    for (const auto& entry : fs::recursive_directory_iterator(cache)) {
        EXPECT_FALSE(entry.is_regular_file()) << entry.path();
    }

    // --cache-clear without a configured cache directory is an error.
    const CliResult no_dir = run_cli("--cache-clear");
    EXPECT_EQ(no_dir.exit_code, 2) << no_dir.output;
}

} // namespace
