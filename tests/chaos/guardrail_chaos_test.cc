#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "service/estate_service.h"
#include "workload/scenario.h"

// Chaos scenarios for the forecast guardrails (docs/robustness.md): a
// poisoned refit whose held-out accuracy is ruined must be rejected by the
// promotion gate; a refit that *reports* clean accuracy but serves a ruined
// forecast must be promoted, caught by live scoring, and rolled back to the
// previous champion byte-for-byte within one tick; both outcomes must
// survive a crash (kPromotion/kRollback journal replay); and a drift-alarm
// storm against a series whose refits keep failing must respect the retry
// backoff and quarantine instead of hammering the pool.

namespace capplan::service {
namespace {

constexpr std::int64_t kHour = 3600;
constexpr std::int64_t kDay = 24 * kHour;

class GuardrailChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

workload::WorkloadScenario TestScenario() {
  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = 1;
  return scenario;
}

EstateServiceConfig FastConfig(const std::string& name) {
  EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.fit_threads = 2;
  config.warmup_days = 42;
  config.state_dir = ::testing::TempDir() + "/guardrail_chaos_" + name;
  std::filesystem::remove_all(config.state_dir);
  config.snapshot_every_ticks = 0;  // journal-only recovery
  return config;
}

// A fit that reports clean held-out accuracy but serves a ruined forecast:
// the gate (which can only see the reported numbers) promotes it, live
// scoring catches the regression on the very next scored hour, and the
// rollback restores the previous champion's model AND cached forecast
// byte-equal — then the whole episode replays from the journal.
TEST_F(GuardrailChaosTest, PoisonedForecastRollsBackByteEqualAndReplays) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig("rollback");
  config.staleness.max_age_seconds = 2 * kHour;    // refit due at tick 3
  config.staleness.rmse_degradation_factor = 1e9;  // age-only refits
  config.guardrail.rollback_min_scored = 1;        // one bad hour suffices
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  std::int64_t champion_fitted_at = 0;
  std::int64_t rollback_now = 0;
  models::Forecast champion_forecast;
  {
    EstateService service(&cluster, watches, config);
    const std::string key = EstateService::KeyFor(cluster, watches[0]);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());  // tick 1: champion A installed
    ASSERT_TRUE(service.DrainRefits().ok());
    ASSERT_TRUE(service.Tick().ok());  // tick 2: one hour scored against A
    ASSERT_TRUE(service.DrainRefits().ok());
    auto model = service.registry().Get(key);
    ASSERT_TRUE(model.ok());
    champion_fitted_at = model->fitted_at_epoch;
    auto view = service.View();
    const auto* row = view->Find(key);
    ASSERT_NE(row, nullptr);
    ASSERT_TRUE(row->has_forecast);
    champion_forecast = row->forecast;  // what a rollback must restore

    // Tick 3: the age policy refits; the challenger's reported accuracy is
    // clean but its forecast is garbage, so the gate promotes it.
    {
      ScopedFault poison("pipeline.poison_forecast", FaultPlan::FailForever());
      ASSERT_TRUE(service.Tick().ok());
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    EXPECT_EQ(service.telemetry().promotions, 2u);
    {
      auto promoted = service.registry().Get(key);
      ASSERT_TRUE(promoted.ok());
      EXPECT_EQ(promoted->generation, 2);
      auto poisoned_view = service.View();
      const auto* poisoned = poisoned_view->Find(key);
      ASSERT_NE(poisoned, nullptr);
      ASSERT_FALSE(poisoned->forecast.mean.empty());
      EXPECT_NE(poisoned->forecast.mean[0], champion_forecast.mean[0]);
    }

    // Tick 4: the first hour scored against the poisoned forecast blows the
    // live-MAPE regression gate and the rollback lands in the same tick.
    auto report = service.Tick();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->rollbacks, 1u);
    EXPECT_EQ(service.telemetry().rollbacks, 1u);
    rollback_now = service.now();
    auto restored = service.registry().Get(key);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->generation, 1);
    EXPECT_EQ(restored->fitted_at_epoch, champion_fitted_at);
    auto restored_view = service.View();
    const auto* back = restored_view->Find(key);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->forecast.mean, champion_forecast.mean);
    EXPECT_EQ(back->forecast.lower, champion_forecast.lower);
    EXPECT_EQ(back->forecast.upper, champion_forecast.upper);
    // Crash here: the kRollback event is the journal tail.
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  const std::string key = recovered.keys()[0];
  EXPECT_EQ(recovered.now(), rollback_now);
  auto model = recovered.registry().Get(key);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->generation, 1);
  EXPECT_EQ(model->fitted_at_epoch, champion_fitted_at);
  auto view = recovered.View();
  const auto* row = view->Find(key);
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->has_forecast);
  EXPECT_EQ(row->forecast.mean, champion_forecast.mean);
  EXPECT_EQ(row->forecast.lower, champion_forecast.lower);
  EXPECT_EQ(row->forecast.upper, champion_forecast.upper);
  // The rollback pulled the replacement refit forward; the recovered
  // schedule keeps that urgency and the estate resumes cleanly.
  auto entry = recovered.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_LE(entry->due_epoch, recovered.now() + config.tick_seconds);
  ASSERT_TRUE(recovered.Tick().ok());
  ASSERT_TRUE(recovered.DrainRefits().ok());
  std::filesystem::remove_all(config.state_dir);
}

// A challenger with ruined held-out accuracy is rejected at the gate; the
// champion is retained, the key reschedules, and the rejection (a kPromotion
// journal event) replays across a crash so the recovered schedule matches.
TEST_F(GuardrailChaosTest, RejectedChallengerSurvivesRecovery) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig("reject");
  config.staleness.max_age_seconds = 4 * kHour;  // refit due at tick 5
  config.staleness.rmse_degradation_factor = 1e9;
  config.guardrail.promotion_min_scored = 2;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  std::int64_t champion_fitted_at = 0;
  std::int64_t rescheduled_due = 0;
  std::int64_t crash_now = 0;
  {
    EstateService service(&cluster, watches, config);
    const std::string key = EstateService::KeyFor(cluster, watches[0]);
    ASSERT_TRUE(service.Start().ok());
    // Tick 1 installs the champion; ticks 2-4 accumulate scored hours so
    // the gate has live evidence when the age-policy refit lands at tick 5.
    for (int tick = 1; tick <= 4; ++tick) {
      ASSERT_TRUE(service.Tick().ok());
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    auto model = service.registry().Get(key);
    ASSERT_TRUE(model.ok());
    champion_fitted_at = model->fitted_at_epoch;
    {
      ScopedFault poison("pipeline.poison_fit", FaultPlan::FailForever());
      ASSERT_TRUE(service.Tick().ok());  // tick 5: gate rejects
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    EXPECT_EQ(service.telemetry().promotions_rejected, 1u);
    EXPECT_EQ(service.telemetry().promotions, 1u);
    auto entry = service.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    rescheduled_due = entry->due_epoch;
    EXPECT_GT(rescheduled_due, service.now());
    crash_now = service.now();
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  const std::string key = recovered.keys()[0];
  EXPECT_EQ(recovered.now(), crash_now);
  auto model = recovered.registry().Get(key);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->fitted_at_epoch, champion_fitted_at);  // champion kept
  EXPECT_EQ(model->generation, 1);
  auto entry = recovered.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->due_epoch, rescheduled_due);  // kPromotion replayed
  std::filesystem::remove_all(config.state_dir);
}

// A champion serving a garbage forecast is rolled back while its key sits
// in quarantine (its replacement refits all died). The rollback restores
// the old champion but must not touch the retry ladder: the key stays
// quarantined with its failure count, live and after Recover, and its
// quarantine due time follows the same rule on both paths.
TEST_F(GuardrailChaosTest, RollbackOfQuarantinedKeySurvivesRecover) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig("rollback_quarantined");
  config.staleness.max_age_seconds = 2 * kHour;    // refits at ticks 3, 5
  config.staleness.rmse_degradation_factor = 1e9;  // age-only refits
  config.guardrail.early_refit_on_drift = false;
  config.guardrail.rollback_min_scored = 4;  // rollback at tick 7
  config.always_forecast = false;  // a dead worker is an outright failure
  config.retry.quarantine_after_failures = 1;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  ScheduleEntry live_entry;
  std::int64_t champion_fitted_at = 0;
  {
    EstateService service(&cluster, watches, config);
    const std::string key = EstateService::KeyFor(cluster, watches[0]);
    ASSERT_TRUE(service.Start().ok());
    for (int tick = 1; tick <= 7; ++tick) {
      if (tick == 3) {
        FaultInjector::Global().Arm("pipeline.poison_forecast",
                                    FaultPlan::FailN(1));
      }
      if (tick == 5) {
        FaultInjector::Global().Arm("pipeline.run", FaultPlan::FailN(1));
      }
      auto report = service.Tick();
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(service.DrainRefits().ok());
      FaultInjector::Global().Reset();
      if (tick == 3) {
        champion_fitted_at =
            service.registry().GetPrevious(key)->fitted_at_epoch;
      }
      if (tick == 5) {
        EXPECT_TRUE(service.IsQuarantined(key));
      }
      EXPECT_EQ(report->rollbacks, tick == 7 ? 1u : 0u) << "tick " << tick;
    }
    // Rolled back, still quarantined, failure count intact.
    EXPECT_EQ(service.registry().Get(key)->fitted_at_epoch,
              champion_fitted_at);
    ASSERT_TRUE(service.IsQuarantined(key));
    auto entry = service.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->consecutive_failures, 1);
    // Quarantined at tick 5: the quarantine time is its due time.
    EXPECT_EQ(entry->due_epoch, service.now() - 2 * kHour);
    live_entry = *entry;
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  const std::string key = recovered.keys()[0];
  EXPECT_EQ(recovered.registry().Get(key)->fitted_at_epoch,
            champion_fitted_at);
  EXPECT_TRUE(recovered.IsQuarantined(key));
  auto entry = recovered.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->consecutive_failures, live_entry.consecutive_failures);
  EXPECT_EQ(entry->due_epoch, live_entry.due_epoch);
  // Quarantined means out of the rotation: nothing is dispatched until a
  // release, on the recovered service as on the live one.
  auto report = recovered.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->refits_dispatched, 0u);
  ASSERT_TRUE(recovered.ReleaseQuarantine(key).ok());
  std::filesystem::remove_all(config.state_dir);
}

// Drift-alarm storm discipline: a champion serving a garbage forecast keeps
// tripping the Page-Hinkley detector, but the refits it pulls forward all
// fail — the retry ladder's backoff and quarantine must bound the damage to
// exactly the failures the ladder allows, no matter how many alarms fire.
TEST_F(GuardrailChaosTest, DriftStormRespectsBackoffAndQuarantine) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig("storm");
  config.staleness.max_age_seconds = 30 * kDay;    // age never triggers here
  config.staleness.rmse_degradation_factor = 1e9;  // nor live degradation
  // No degradation ladder: a dead refit worker is an outright failure that
  // the retry ladder (backoff, then quarantine) has to absorb.
  config.always_forecast = false;
  config.retry.initial_backoff_seconds = kHour;
  config.retry.backoff_multiplier = 1.0;
  config.retry.quarantine_after_failures = 2;
  // A hair-trigger detector: any sustained error shift alarms within a
  // couple of scored hours (and re-alarms after its auto-reset).
  config.guardrail.tracker.drift.delta = 0.0;
  config.guardrail.tracker.drift.threshold = 0.01;
  config.guardrail.tracker.drift.min_samples = 2;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  EstateService service(&cluster, watches, config);
  const std::string key = EstateService::KeyFor(cluster, watches[0]);
  ASSERT_TRUE(service.Start().ok());
  // The initial fit "succeeds" with a garbage forecast: every hour scored
  // from now on is wildly wrong, so the detector alarms again and again.
  {
    ScopedFault poison("pipeline.poison_forecast", FaultPlan::FailForever());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  ASSERT_EQ(service.telemetry().refits_succeeded, 1u);

  // Every replacement refit the alarms pull forward dies on the pool.
  FaultInjector::Global().Arm("pipeline.run", FaultPlan::FailForever());
  for (int tick = 2; tick <= 12; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }

  const auto& shard = service.telemetry().shards[0];
  // The storm raged: multiple alarms across the run...
  EXPECT_GE(shard.guardrail_drift_alarms.value(), 2u);
  // ...but only the first could pull a refit forward. While the key was
  // backing off or quarantined the alarms were absorbed.
  EXPECT_EQ(shard.guardrail_early_refits.value(), 1u);
  EXPECT_LT(shard.guardrail_early_refits.value(),
            shard.guardrail_drift_alarms.value());
  // The ladder allowed exactly two failing dispatches (initial + one retry)
  // before quarantine; eleven ticks of alarms added nothing more.
  EXPECT_EQ(service.telemetry().refits_failed, 2u);
  EXPECT_EQ(service.telemetry().refits_dispatched, 3u);
  EXPECT_EQ(service.telemetry().quarantines, 1u);
  EXPECT_TRUE(service.IsQuarantined(key));
  std::filesystem::remove_all(config.state_dir);
}

}  // namespace
}  // namespace capplan::service
