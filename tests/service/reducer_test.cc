#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "service/estate_service.h"
#include "workload/scenario.h"

// The one-reducer property: live ticks and journal replay run every durable
// state transition through EstateService::Apply, so Recover() on the state
// directory as it stood after any tick must rebuild exactly the live state
// at that tick. A scripted 32-tick schedule on a seeded OLAP cluster walks
// every transition the journal knows: fits, failures with backoff,
// quarantine and release, a rejected challenger, a rollback (of a key that
// is quarantined by then), and an alert raise and clear. After every tick
// the live service's digest is compared with that of a service recovered
// from a copy of its state directory, journal-only and with a snapshot
// every third tick.

namespace capplan::service {
namespace {

constexpr std::int64_t kHour = 3600;
constexpr int kTicks = 32;

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Hex(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += Hex(v) + ";";
  return out;
}

std::string ModelDigest(const repo::StoredModel& m) {
  return m.technique + "|" + m.spec + "|" + Hex(m.test_rmse) + "|" +
         Hex(m.test_mape) + "|" + std::to_string(m.fitted_at_epoch) + "|" +
         Hex(m.ar_coef) + "|" + Hex(m.ma_coef) + "|" + Hex(m.periods) + "|" +
         std::to_string(m.generation) + "|" +
         std::to_string(m.promoted_at_epoch) + "|" + Hex(m.live_mape);
}

// Everything Apply owns, rendered exactly (doubles in hex). The rollback
// slot is left out when `with_rollback_slot` is false: snapshots do not
// carry it.
std::map<std::string, std::string> Digest(const EstateService& svc,
                                          bool with_rollback_slot) {
  std::map<std::string, std::string> d;
  d["clock"] = std::to_string(svc.now()) + " ticks " +
               std::to_string(svc.tick_count());
  const auto view = svc.View();
  for (const std::string& key : svc.keys()) {
    if (const auto m = svc.registry().Get(key); m.ok()) {
      d["registry " + key] = ModelDigest(*m);
    }
    if (const auto p = svc.registry().GetPrevious(key);
        with_rollback_slot && p.ok()) {
      d["rollback slot " + key] = ModelDigest(*p);
    }
    if (const serve::InstanceStatus* row = view->Find(key);
        row != nullptr && row->has_forecast) {
      d["forecast " + key] =
          row->spec + "|" + std::to_string(row->forecast_start_epoch) + "|" +
          std::to_string(row->forecast_step_seconds) + "|" +
          std::to_string(static_cast<int>(row->degradation)) + "|" +
          Hex(row->forecast.level) + "|" + Hex(row->forecast.mean) + "|" +
          Hex(row->forecast.lower) + "|" + Hex(row->forecast.upper);
    }
  }
  for (const ScheduleEntry& e : svc.ScheduleEntries()) {
    d["schedule " + e.key] = std::to_string(e.due_epoch) + "|" +
                             std::to_string(e.consecutive_failures) + "|" +
                             (e.quarantined ? "q" : "-") +
                             (e.in_flight ? "f" : "-");
  }
  for (const ServiceAlert& a : svc.ActiveAlerts()) {
    d["alert " + a.key] = std::string(a.upper_only ? "upper" : "mean") + "|" +
                          std::to_string(a.predicted_breach_epoch) + "|" +
                          std::to_string(a.raised_at_epoch);
  }
  for (const auto& [key, q] : svc.quality_reports()) {
    d["quality " + key] = Hex(q.score) + "|" + (q.trainable ? "1" : "0") +
                          "|" + q.verdict;
  }
  return d;
}

// First difference between two digests, for the failure message.
std::string FirstDiff(const std::map<std::string, std::string>& live,
                      const std::map<std::string, std::string>& recovered) {
  for (const auto& [what, value] : live) {
    const auto it = recovered.find(what);
    if (it == recovered.end()) return what + ": missing after Recover";
    if (it->second != value) {
      return what + ": live " + value.substr(0, 160) + " vs recovered " +
             it->second.substr(0, 160);
    }
  }
  for (const auto& [what, value] : recovered) {
    if (live.count(what) == 0) return what + ": only after Recover";
  }
  return "";
}

class EstateServiceReducerTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_P(EstateServiceReducerTest, RecoverEqualsLiveAfterEveryTick) {
  const int snapshot_every = GetParam();
  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = 2;
  workload::ClusterSimulator cluster(scenario, 7);

  EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.fit_threads = 1;
  config.snapshot_every_ticks = snapshot_every;
  const std::string base = ::testing::TempDir() + "/reducer_" +
                           std::to_string(snapshot_every);
  std::filesystem::remove_all(base);
  config.state_dir = base + "/live";
  config.staleness.max_age_seconds = 2 * kHour;    // refit every 2 ticks
  config.staleness.rmse_degradation_factor = 1e9;  // age-only refits
  config.guardrail.early_refit_on_drift = false;
  config.guardrail.promotion_min_scored = 2;
  config.guardrail.promotion_tolerance_ratio = 100.0;  // only poison fails
  config.guardrail.rollback_min_scored = 4;
  config.always_forecast = false;  // a dead worker is a real failure
  config.retry.initial_backoff_seconds = kHour;
  config.retry.quarantine_after_failures = 2;

  agent::FaultModel dead;
  dead.drop_probability = 1.0;
  const std::vector<WatchConfig> watches = {
      // Only a poisoned forecast crosses 500% CPU: the alert is raised when
      // one is promoted and cleared when it is rolled back.
      {0, workload::Metric::kCpu, 500.0},
      // Every poll dropped: every refit fails, backs off, quarantines.
      {1, workload::Metric::kCpu, 500.0, dead}};

  // The schedule. Faults fire on the first fit of the tick; the dead key
  // fails in the sentinel before any of these sites. Live scoring of a
  // champion starts one tick after its promotion; a key is due every
  // max_age (2 ticks) after its last refit, promoted or rejected.
  const std::map<int, const char*> faults = {
      // tick 3: a clean refit is promoted.
      {5, "pipeline.poison_fit"},       // challenger rejected at the gate
      {7, "pipeline.poison_forecast"},  // promoted; the alert is raised
      {9, "pipeline.run"},              // refit fails, backs off
      {10, "pipeline.run"},             // fails again: quarantined
      // tick 11: four hours scored against the poisoned champion — rolled
      // back while its key is quarantined; the alert clears.
  };
  // Tick -> watch released after it.
  const std::map<int, int> releases = {{4, 1}, {12, 0}, {20, 1}};

  EstateService live(&cluster, watches, config);
  const std::string good = live.keys()[0];
  ASSERT_TRUE(live.Start().ok());
  std::set<EventKind> seen;
  bool rolled_back_in_quarantine = false;
  for (int tick = 1; tick <= kTicks; ++tick) {
    if (const auto f = faults.find(tick); f != faults.end()) {
      FaultInjector::Global().Arm(f->second, FaultPlan::FailN(1));
    }
    const bool quarantined_before = live.IsQuarantined(good);
    auto report = live.Tick();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(live.DrainRefits().ok());
    FaultInjector::Global().Reset();
    if (report->rollbacks > 0 && quarantined_before &&
        live.IsQuarantined(good)) {
      rolled_back_in_quarantine = true;
    }
    if (const auto r = releases.find(tick); r != releases.end()) {
      ASSERT_TRUE(live.ReleaseQuarantine(live.keys()[r->second]).ok())
          << "tick " << tick;
    }

    // Crash here: a copy of the state directory, recovered.
    const std::string copy = base + "/crash";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(config.state_dir, copy,
                          std::filesystem::copy_options::recursive);
    EstateServiceConfig crashed = config;
    crashed.state_dir = copy;
    EstateService recovered(&cluster, watches, crashed);
    ASSERT_TRUE(recovered.Recover().ok()) << "tick " << tick;
    const bool journal_only = snapshot_every == 0;
    const auto want = Digest(live, journal_only);
    const auto got = Digest(recovered, journal_only);
    ASSERT_EQ(want, got) << "tick " << tick << ": " << FirstDiff(want, got);
  }

  // The schedule walked every transition it claims to.
  auto journal = ReadEvents(config.state_dir + "/journal.log");
  ASSERT_TRUE(journal.ok());
  for (const Event& e : *journal) seen.insert(e.kind());
  for (EventKind kind :
       {EventKind::kTick, EventKind::kFitOk, EventKind::kFitFail,
        EventKind::kQuarantine, EventKind::kRelease, EventKind::kAlert,
        EventKind::kAlertClear, EventKind::kQuality, EventKind::kPromotion,
        EventKind::kRollback}) {
    EXPECT_TRUE(seen.count(kind) > 0) << EventKindName(kind);
  }
  EXPECT_TRUE(rolled_back_in_quarantine);
  EXPECT_EQ(seen.count(EventKind::kSnapshot) > 0, snapshot_every > 0);
  std::filesystem::remove_all(base);
}

INSTANTIATE_TEST_SUITE_P(Modes, EstateServiceReducerTest,
                         ::testing::Values(0, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("JournalOnly")
                                      : "SnapshotEvery" +
                                            std::to_string(info.param);
                         });

}  // namespace
}  // namespace capplan::service
