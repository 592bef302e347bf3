#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "service/estate_service.h"
#include "workload/scenario.h"

// Byte identity of everything the estate writes to its state directory:
// the journal, every snapshot.* file and every shard's .capseg segments,
// compared with golden copies under tests/testdata/golden_estate. The
// writers may change how they produce those bytes, never the bytes.
//
// After a deliberate format or numerics change, regenerate the goldens by
// running this test with CAPPLAN_UPDATE_GOLDEN=1 in the environment
//   (service_test --gtest_filter='EstateGoldenTest.*')
// and say why in the commit. The goldens were captured on x86-64 Linux
// (glibc libm); the estate's forecasts are computed, so another libm may
// round differently.

namespace capplan::service {
namespace {

namespace fs = std::filesystem;

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Relative paths of the regular files under `dir`.
std::set<std::string> FilesUnder(const fs::path& dir) {
  std::set<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.insert(fs::relative(entry.path(), dir).generic_string());
    }
  }
  return files;
}

// A small fixed-seed estate: four keys on two shards, a short horizon, one
// refit wave (fit_ok events), an alert (a threshold every forecast
// crosses), a snapshot on the second tick and a final Checkpoint.
void RunGoldenEstate(const std::string& state_dir) {
  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = 2;
  workload::ClusterSimulator cluster(scenario, 11);

  EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.pipeline.horizon_override = 12;
  config.poll_seconds = 3600;
  config.fit_threads = 1;
  config.n_shards = 2;
  config.snapshot_every_ticks = 2;
  config.state_dir = state_dir;
  const std::vector<WatchConfig> watches = {
      {0, workload::Metric::kCpu, 0.0},  // every forecast breaches: alert
      {0, workload::Metric::kMemory, 1e12},
      {1, workload::Metric::kCpu, 1e12},
      {1, workload::Metric::kMemory, 1e12}};

  EstateService svc(&cluster, watches, config);
  ASSERT_TRUE(svc.Start().ok());
  for (int tick = 0; tick < 3; ++tick) {
    ASSERT_TRUE(svc.Tick().ok());
    ASSERT_TRUE(svc.DrainRefits().ok());
  }
  ASSERT_TRUE(svc.Checkpoint().ok());
  ASSERT_FALSE(svc.ActiveAlerts().empty());
}

TEST(EstateGoldenTest, StateDirectoryMatchesGoldenBytes) {
  FaultInjector::Global().Reset();
  const fs::path golden = fs::path(CAPPLAN_TESTDATA_DIR) / "golden_estate";
  const fs::path state = fs::path(::testing::TempDir()) / "golden_estate";
  fs::remove_all(state);
  fs::create_directories(state);
  RunGoldenEstate(state.string());
  if (HasFatalFailure()) return;

  if (std::getenv("CAPPLAN_UPDATE_GOLDEN") != nullptr) {
    fs::remove_all(golden);
    fs::create_directories(golden);
    fs::copy(state, golden, fs::copy_options::recursive);
    GTEST_SKIP() << "goldens rewritten under " << golden;
  }

  const std::set<std::string> files = FilesUnder(state);
  ASSERT_EQ(files, FilesUnder(golden));
  for (const char* name :
       {"journal.log", "snapshot.forecasts.csv", "snapshot.alerts.csv",
        "shard_0/raw.capseg", "shard_1/hourly.capseg"}) {
    EXPECT_EQ(files.count(name), 1u) << name;
  }
  for (const std::string& name : files) {
    const std::string want = ReadBytes(golden / name);
    const std::string got = ReadBytes(state / name);
    EXPECT_TRUE(got == want) << name << " differs from its golden copy ("
                             << got.size() << " vs " << want.size()
                             << " bytes)";
    if (name != "journal.log") continue;
    // The journal line by line, so a failure names the event.
    std::istringstream want_lines(want), got_lines(got);
    std::string want_line, got_line;
    int line = 0;
    while (std::getline(want_lines, want_line)) {
      ++line;
      ASSERT_TRUE(std::getline(got_lines, got_line)) << "journal ends at "
                                                     << line;
      EXPECT_EQ(got_line, want_line) << "journal line " << line;
    }
    EXPECT_FALSE(std::getline(got_lines, got_line)) << "extra journal lines";
  }
  fs::remove_all(state);
}

}  // namespace
}  // namespace capplan::service
