#include "service/estate_service.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "workload/scenario.h"

namespace capplan::service {
namespace {

constexpr std::int64_t kHour = 3600;
constexpr std::int64_t kDay = 24 * kHour;

workload::WorkloadScenario TestScenario() {
  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = 2;
  return scenario;
}

// Fast config: HES branch only, small pool, hourly ticks.
EstateServiceConfig FastConfig() {
  EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.fit_threads = 2;
  config.warmup_days = 42;  // exactly the 1008-hour Table-1 window
  return config;
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/estate_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(EstateServiceTest, StartBackfillsWarmupAndSchedulesEveryWatch) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(
      &cluster,
      {{0, workload::Metric::kCpu, 95.0}, {1, workload::Metric::kCpu, 95.0}},
      FastConfig());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.now(), cluster.start_epoch() + 42 * kDay);
  ASSERT_EQ(service.keys().size(), 2u);
  for (const auto& key : service.keys()) {
    const auto* hourly = service.FindHourly(key);
    ASSERT_NE(hourly, nullptr);
    EXPECT_EQ(hourly->size(), 1008u);
    auto entry = service.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->due_epoch, service.now());
  }
  EXPECT_FALSE(service.Start().ok());  // double start rejected
}

TEST(EstateServiceTest, TickRequiresStart) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        FastConfig());
  EXPECT_FALSE(service.Tick().ok());
}

TEST(EstateServiceTest, BadTickCadenceRejected) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.tick_seconds = 1800;  // not a whole hour
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  EXPECT_FALSE(service.Start().ok());
}

TEST(EstateServiceTest, FirstTickIngestsAndFitsEveryWatch) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(
      &cluster,
      {{0, workload::Metric::kCpu, 95.0}, {1, workload::Metric::kLogicalIops, 1e12}},
      FastConfig());
  ASSERT_TRUE(service.Start().ok());

  auto report = service.Tick();
  ASSERT_TRUE(report.ok());
  // One hour of 15-minute polls for two watches.
  EXPECT_EQ(report->samples_ingested, 8u);
  EXPECT_EQ(report->refits_dispatched, 2u);
  ASSERT_TRUE(service.DrainRefits().ok());

  EXPECT_EQ(service.telemetry().refits_succeeded, 2u);
  EXPECT_EQ(service.telemetry().refits_failed, 0u);
  for (const auto& key : service.keys()) {
    EXPECT_EQ(service.FindHourly(key)->size(), 1009u);
    ASSERT_TRUE(service.registry().Contains(key));
    auto model = service.registry().Get(key);
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(model->fitted_at_epoch, service.now());
    // Next refit is due one staleness period after the fit.
    auto entry = service.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->due_epoch,
              model->fitted_at_epoch +
                  service.registry().policy().max_age_seconds);
  }
}

TEST(EstateServiceTest, RefitsFollowTheAgePolicy) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.staleness.max_age_seconds = 2 * kHour;
  config.staleness.rmse_degradation_factor = 1e9;  // age only
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());
  // Fits at ticks 1 (initial), 3 and 5 (age expiry): never in between.
  for (int tick = 1; tick <= 6; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_EQ(service.telemetry().refits_dispatched, 3u);
  EXPECT_EQ(service.telemetry().refits_succeeded, 3u);
}

TEST(EstateServiceTest, DegradationPullsTheRefitForward) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.staleness.max_age_seconds = 30 * kDay;  // age never expires here
  // Any nonzero live RMSE counts as degraded.
  config.staleness.rmse_degradation_factor = 1e-12;
  config.degradation_min_points = 4;
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_dispatched, 1u);
  // The degradation check waits for enough forecast-vs-actual overlap, then
  // pulls the (age-wise distant) refit forward.
  for (int tick = 2; tick <= 7; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_GE(service.telemetry().refits_dispatched, 2u);
}

TEST(EstateServiceTest, FailingSeriesBacksOffThenQuarantines) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.retry.initial_backoff_seconds = kHour;
  config.retry.backoff_multiplier = 1.0;
  config.retry.quarantine_after_failures = 2;
  // Watch 1's agent drops every poll: an all-NaN series the pipeline cannot
  // interpolate, so every refit fails while watch 0 stays healthy.
  agent::FaultModel dead;
  dead.drop_probability = 1.0;
  EstateService service(&cluster,
                        {{0, workload::Metric::kCpu, 95.0},
                         {1, workload::Metric::kCpu, 95.0, dead}},
                        config);
  const std::string bad_key = service.keys()[1];
  ASSERT_TRUE(service.Start().ok());

  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 1u);
  EXPECT_FALSE(service.IsQuarantined(bad_key));
  auto entry = service.ScheduleFor(bad_key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->consecutive_failures, 1);
  EXPECT_EQ(entry->due_epoch, service.now() + kHour);  // backed off

  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 2u);
  EXPECT_TRUE(service.IsQuarantined(bad_key));
  EXPECT_EQ(service.telemetry().quarantines, 1u);

  // The healthy watch was unaffected throughout.
  EXPECT_EQ(service.telemetry().refits_succeeded, 1u);
  EXPECT_TRUE(service.registry().Contains(service.keys()[0]));

  // Quarantined keys are out of the rotation until released.
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 2u);
  ASSERT_TRUE(service.ReleaseQuarantine(bad_key).ok());
  EXPECT_FALSE(service.IsQuarantined(bad_key));
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 3u);
}

TEST(EstateServiceTest, BreachAlertRaisedFromCachedForecast) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  // Threshold far below any CPU value: the first cached forecast breaches.
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 0.01}},
                        FastConfig());
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  auto report = service.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->alerts_raised, 1u);
  auto alerts = service.ActiveAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].key, service.keys()[0]);
  EXPECT_FALSE(alerts[0].upper_only);
  EXPECT_GE(alerts[0].predicted_breach_epoch, service.now());
  // Subsequent ticks keep the alert active without re-raising it.
  ASSERT_TRUE(service.Tick().ok());
  EXPECT_EQ(service.telemetry().alerts_raised, 1u);
  EXPECT_GE(service.telemetry().forecast_cache_hits, 2u);
  // No refit happened besides the initial one: the cache carried the feed.
  EXPECT_EQ(service.telemetry().refits_dispatched, 1u);
}

TEST(EstateServiceTest, RecoversFromJournalAfterCrash) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("journal_only");
  config.snapshot_every_ticks = 0;  // journal-only recovery
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 0.01}};

  std::int64_t now = 0;
  std::int64_t fitted_at = 0;
  std::string spec;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    ASSERT_TRUE(service.Tick().ok());  // raises the breach alert
    ASSERT_EQ(service.ActiveAlerts().size(), 1u);
    now = service.now();
    auto model = service.registry().Get(service.keys()[0]);
    ASSERT_TRUE(model.ok());
    fitted_at = model->fitted_at_epoch;
    spec = model->spec;
    // Crash: scope exit with no checkpoint — only the journal survives.
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.now(), now);
  EXPECT_EQ(recovered.tick_count(), 2u);
  const std::string key = recovered.keys()[0];
  ASSERT_TRUE(recovered.registry().Contains(key));
  auto model = recovered.registry().Get(key);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->fitted_at_epoch, fitted_at);
  EXPECT_EQ(model->spec, spec);
  auto entry = recovered.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->due_epoch,
            fitted_at + config.staleness.max_age_seconds);
  ASSERT_EQ(recovered.ActiveAlerts().size(), 1u);
  // The metric history was rebuilt up to the recovered cursor.
  EXPECT_EQ(recovered.FindHourly(key)->size(), 1010u);
  // The cached forecast survived: the next tick serves alerts from it
  // without dispatching a refit.
  ASSERT_TRUE(recovered.Tick().ok());
  EXPECT_EQ(recovered.telemetry().refits_dispatched, 0u);
  EXPECT_GE(recovered.telemetry().forecast_cache_hits, 1u);
  std::filesystem::remove_all(config.state_dir);
}

TEST(EstateServiceTest, RecoversFromSnapshotPlusJournalSuffix) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("snapshot");
  config.snapshot_every_ticks = 2;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 0.01}};

  std::int64_t now = 0;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    // Three ticks: the snapshot lands at tick 2, tick 3 is journal suffix.
    for (int tick = 1; tick <= 3; ++tick) {
      ASSERT_TRUE(service.Tick().ok());
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    EXPECT_EQ(service.telemetry().snapshots_written, 1u);
    now = service.now();
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.now(), now);
  EXPECT_EQ(recovered.tick_count(), 3u);
  EXPECT_TRUE(recovered.registry().Contains(recovered.keys()[0]));
  ASSERT_EQ(recovered.ActiveAlerts().size(), 1u);
  EXPECT_EQ(recovered.FindHourly(recovered.keys()[0])->size(),
            1011u);
  std::filesystem::remove_all(config.state_dir);
}

// A journal-only OLAP HES estate: two promotions put the first champion,
// stamped with its final live MAPE, into the rollback slot. Recover must
// rebuild the champion's warm-start coefficients and routed periods (what
// /v1/decompose serves) and the slot's stamp, all from fit_ok lines.
TEST(EstateServiceTest, RecoverFromJournalKeepsModelLineage) {
  auto scenario = TestScenario();
  scenario.n_instances = 1;
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("lineage");
  config.snapshot_every_ticks = 0;  // journal-only recovery
  config.staleness.max_age_seconds = 2 * kHour;  // second fit at tick 3
  config.staleness.rmse_degradation_factor = 1e9;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  repo::StoredModel champion;
  repo::StoredModel demoted;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    for (int tick = 1; tick <= 3; ++tick) {
      ASSERT_TRUE(service.Tick().ok());
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    const std::string key = service.keys()[0];
    auto model = service.registry().Get(key);
    ASSERT_TRUE(model.ok());
    champion = *model;
    auto previous = service.registry().GetPrevious(key);
    ASSERT_TRUE(previous.ok());
    demoted = *previous;
    EXPECT_EQ(champion.generation, 2);
    EXPECT_FALSE(champion.periods.empty());
    EXPECT_GE(demoted.live_mape, 0.0);  // scored before it was displaced
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  const std::string key = recovered.keys()[0];
  auto model = recovered.registry().Get(key);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->periods, champion.periods);
  EXPECT_EQ(model->ar_coef, champion.ar_coef);
  EXPECT_EQ(model->ma_coef, champion.ma_coef);
  EXPECT_EQ(model->generation, champion.generation);
  EXPECT_EQ(model->promoted_at_epoch, champion.promoted_at_epoch);
  auto previous = recovered.registry().GetPrevious(key);
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous->live_mape, demoted.live_mape);
  EXPECT_EQ(previous->periods, demoted.periods);
  EXPECT_EQ(previous->generation, demoted.generation);
  std::filesystem::remove_all(config.state_dir);
}

// An alert's prognosis (predicted breach epoch, upper-only flag) moves with
// the clock without a journal event of its own. Right after Recover the
// active alerts must equal the live ones, prognosis included — from the
// journal alone and from a snapshot plus suffix.
TEST(EstateServiceTest, RecoverRestoresAlertPrognosesAsLive) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  for (const int snapshot_every : {0, 3}) {
    auto config = FastConfig();
    config.state_dir =
        FreshStateDir("prognosis_" + std::to_string(snapshot_every));
    config.snapshot_every_ticks = snapshot_every;
    // Far below any CPU value: the breach is always the next forecast
    // step, so the prognosis advances every tick.
    const std::vector<WatchConfig> watches = {
        {0, workload::Metric::kCpu, 0.01}};
    std::vector<ServiceAlert> live;
    {
      EstateService service(&cluster, watches, config);
      ASSERT_TRUE(service.Start().ok());
      for (int tick = 1; tick <= 5; ++tick) {
        ASSERT_TRUE(service.Tick().ok());
        ASSERT_TRUE(service.DrainRefits().ok());
      }
      live = service.ActiveAlerts();
      ASSERT_EQ(live.size(), 1u);
      EXPECT_EQ(live[0].predicted_breach_epoch, service.now());
      EXPECT_LT(live[0].raised_at_epoch, service.now());
    }
    EstateService recovered(&cluster, watches, config);
    ASSERT_TRUE(recovered.Recover().ok());
    const auto alerts = recovered.ActiveAlerts();
    ASSERT_EQ(alerts.size(), 1u) << "snapshot_every " << snapshot_every;
    EXPECT_EQ(alerts[0].key, live[0].key);
    EXPECT_EQ(alerts[0].upper_only, live[0].upper_only);
    EXPECT_EQ(alerts[0].predicted_breach_epoch, live[0].predicted_breach_epoch)
        << "snapshot_every " << snapshot_every;
    EXPECT_EQ(alerts[0].raised_at_epoch, live[0].raised_at_epoch);
    std::filesystem::remove_all(config.state_dir);
  }
}

// Journals written by earlier versions keep replaying: v1 lines (no span
// id) and the 11-field (pre-ladder) and 13-field (pre-lineage) fit_ok
// layouts install their models lineage-neutrally.
TEST(EstateServiceTest, RecoverReplaysLegacyFitOkLayoutsAndV1Lines) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("legacy");
  config.snapshot_every_ticks = 0;
  const std::vector<WatchConfig> watches = {
      {0, workload::Metric::kCpu, 95.0}, {1, workload::Metric::kCpu, 95.0}};
  const std::string a = EstateService::KeyFor(cluster, watches[0]);
  const std::string b = EstateService::KeyFor(cluster, watches[1]);
  const std::int64_t t1 = cluster.start_epoch() + 42 * kDay + kHour;
  const std::int64_t t2 = t1 + kHour;
  const std::string e1 = std::to_string(t1);
  const std::string forecast =
      e1 + "|3600|0.95|10;11;12|9;10;11|11;12;13";
  std::filesystem::create_directories(config.state_dir);
  {
    std::ofstream out(config.state_dir + "/journal.log");
    out << "v1|" << e1 << "|quality|" << a << "|0.5|1|ok\n";
    out << "v1|" << e1 << "|fit_ok|" << a << "|HES|ETS(A,N,N)|1.5|3.25|" << e1
        << "|" << forecast << "\n";
    out << "v2|" << e1 << "|fit_ok|0|" << b << "|HES|ETS(A,A,N)|2.5|4.5|"
        << e1 << "|" << forecast << "|2|0.75\n";
    out << "v1|" << e1 << "|tick|\n";
    out << "v2|" << t2 << "|tick|0|\n";
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.now(), t2);
  EXPECT_EQ(recovered.tick_count(), 2u);
  for (const std::string& key : {a, b}) {
    auto model = recovered.registry().Get(key);
    ASSERT_TRUE(model.ok()) << key;
    EXPECT_EQ(model->fitted_at_epoch, t1);
    EXPECT_EQ(model->generation, 0);  // lineage-neutral Put
    EXPECT_FALSE(recovered.registry().HasPrevious(key));
    auto entry = recovered.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->due_epoch, t1 + config.staleness.max_age_seconds);
  }
  EXPECT_EQ(recovered.registry().Get(a)->spec, "ETS(A,N,N)");
  EXPECT_EQ(recovered.ForecastDegradation(a), core::DegradationLevel::kFull);
  EXPECT_EQ(recovered.ForecastDegradation(b), core::DegradationLevel::kSes);
  const auto view = recovered.View();
  const auto* row = view->Find(a);
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->has_forecast);
  EXPECT_EQ(row->spec, "HES ETS(A,N,N)");
  EXPECT_EQ(row->forecast.mean, (std::vector<double>{10, 11, 12}));
  ASSERT_EQ(recovered.quality_reports().count(a), 1u);
  EXPECT_EQ(recovered.quality_reports().at(a).score, 0.5);
  std::filesystem::remove_all(config.state_dir);
}

TEST(EstateServiceTest, RecoverWithoutStateFails) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("empty");
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  EXPECT_FALSE(service.Recover().ok());  // nothing journalled yet
  std::filesystem::remove_all(config.state_dir);

  auto ephemeral = FastConfig();
  EstateService no_dir(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                       ephemeral);
  EXPECT_FALSE(no_dir.Recover().ok());  // no state_dir configured
}

TEST(EstateServiceTest, TelemetryJsonIsWellFormed) {
  ServiceTelemetry telemetry;
  telemetry.ticks = 3;
  telemetry.refits_succeeded = 2;
  telemetry.fit_stage.Record(12.5);
  telemetry.fit_stage.Record(7.5);
  const std::string json = TelemetryToJson(telemetry);
  EXPECT_NE(json.find("\"ticks\":3"), std::string::npos);
  EXPECT_NE(json.find("\"refits_succeeded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"fit\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_ms\":10"), std::string::npos);
}

TEST(EstateServiceTest, TelemetryJsonGoldenFieldsAreByteStable) {
  // The registry migration must be invisible to anything parsing the
  // telemetry JSON: the counter block is pinned byte for byte, and the
  // pre-migration stage fields keep their exact order with the new
  // histogram-derived fields (min/p50/p99) strictly appended.
  ServiceTelemetry telemetry;
  telemetry.ticks = 3;
  telemetry.refits_succeeded = 2;
  telemetry.fit_stage.Record(12.5);
  telemetry.fit_stage.Record(7.5);
  const std::string json = TelemetryToJson(telemetry);
  const std::string golden_counters =
      "{\"ticks\":3,\"polls\":0,\"samples_ingested\":0,\"hourly_points\":0,"
      "\"refits_dispatched\":0,\"refits_succeeded\":2,\"refits_failed\":0,"
      "\"refits_deferred\":0,\"refits_degraded\":0,\"quality_gated\":0,"
      "\"quarantines\":0,\"alerts_raised\":0,\"alerts_cleared\":0,"
      "\"forecast_cache_hits\":0,\"forecast_exhausted_ticks\":0,"
      "\"journal_events\":0,\"snapshots_written\":0,\"io_errors\":0,"
      "\"journal_write_failures\":0,\"snapshot_failures\":0,\"stages\":{";
  EXPECT_EQ(json.substr(0, golden_counters.size()), golden_counters);
  EXPECT_NE(
      json.find("\"fit\":{\"count\":2,\"total_ms\":20,\"mean_ms\":10,"
                "\"max_ms\":12.5,\"min_ms\":7.5,\"p50_ms\":10,"
                "\"p99_ms\":12.45}"),
      std::string::npos)
      << json;
}

TEST(EstateServiceTest, TelemetryJsonAppendsGuardrailAndHealthAfterShards) {
  // The guardrail and health summaries ride strictly after the shards array
  // so the frozen counter prefix (tested above) is untouched.
  ServiceTelemetry telemetry;
  const std::string json = TelemetryToJson(telemetry);
  const auto shards_pos = json.find("\"shards\":[");
  const auto guardrail_pos = json.find("\"guardrail\":{");
  const auto health_pos = json.find("\"health\":{");
  ASSERT_NE(shards_pos, std::string::npos) << json;
  ASSERT_NE(guardrail_pos, std::string::npos) << json;
  ASSERT_NE(health_pos, std::string::npos) << json;
  EXPECT_LT(shards_pos, guardrail_pos);
  EXPECT_LT(guardrail_pos, health_pos);
  EXPECT_NE(json.find("\"promotions\":0"), std::string::npos);
  EXPECT_NE(json.find("\"promotions_rejected\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rollbacks\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tick_overruns\":0"), std::string::npos);
}

// A fresh champion is judged from its forecast's first step: the hour
// stamped at the tick that installed it is scored on the next tick, with no
// hour skipped before the live window starts.
TEST(EstateServiceTest, FirstForecastStepIsScored) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.fit_threads = 1;
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());
  const std::string key = service.keys()[0];
  ASSERT_TRUE(service.Tick().ok());  // the first fit
  ASSERT_TRUE(service.DrainRefits().ok());
  const auto forecast_start = service.View()->Find(key)->forecast_start_epoch;
  EXPECT_EQ(forecast_start, service.now());
  const auto& scored = service.telemetry().shards[0].guardrail_scored;
  EXPECT_EQ(scored.value(), 0u);
  for (std::uint64_t tick = 1; tick <= 3; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    // One hour per tick, starting with the one at forecast_start.
    EXPECT_EQ(scored.value(), tick) << "tick " << tick;
  }
}

TEST(EstateServiceTest, LiveScoringTracksForecastAccuracy) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        FastConfig());
  ASSERT_TRUE(service.Start().ok());
  const std::string key = service.keys()[0];
  EXPECT_LT(service.LiveMapeFor(key), 0.0);  // nothing scored before a fit
  EXPECT_LT(service.LiveMapeFor("no/such/key"), 0.0);

  for (int tick = 1; tick <= 5; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  // Hours arriving after the initial fit were scored against the cached
  // forecast: the rolling live MAPE (percent) is populated and finite.
  const double live = service.LiveMapeFor(key);
  EXPECT_GE(live, 0.0);
  EXPECT_TRUE(std::isfinite(live));
  ASSERT_EQ(service.telemetry().shards.size(), 1u);
  EXPECT_GE(service.telemetry().shards[0].guardrail_scored.value(), 3u);
  // The initial fit was a promotion (generation 1, no gate to clear).
  EXPECT_EQ(service.telemetry().promotions, 1u);
  auto model = service.registry().Get(key);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->generation, 1);
  EXPECT_GT(model->promoted_at_epoch, 0);
  // An accurate steady-state stream keeps the estate healthy.
  EXPECT_EQ(service.ShardHealthState(0), HealthState::kHealthy);
  EXPECT_EQ(service.OverallHealth(), HealthState::kHealthy);
}

TEST(EstateServiceTest, PromotionGateRejectsRegressedChallenger) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.staleness.max_age_seconds = 4 * kHour;     // refit due at tick 5
  config.staleness.rmse_degradation_factor = 1e9;   // age-only refits
  config.guardrail.promotion_min_scored = 2;
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  const std::string key = service.keys()[0];
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  auto champion = service.registry().Get(key);
  ASSERT_TRUE(champion.ok());
  const std::int64_t champion_fitted_at = champion->fitted_at_epoch;

  // Ticks 2-4 accumulate scored hours against the champion's forecast; the
  // age policy refits at tick 5, but the challenger's held-out MAPE is
  // poisoned sky-high, so the gate holds.
  for (int tick = 2; tick <= 4; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  ASSERT_GE(service.LiveMapeFor(key), 0.0);
  {
    ScopedFault poison("pipeline.poison_fit", FaultPlan::FailForever());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_EQ(service.telemetry().promotions_rejected, 1u);
  EXPECT_EQ(service.telemetry().promotions, 1u);  // only the initial fit
  EXPECT_EQ(service.telemetry().rollbacks, 0u);
  auto kept = service.registry().Get(key);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->fitted_at_epoch, champion_fitted_at);  // champion retained
  EXPECT_EQ(kept->generation, 1);
  // The rejection still reschedules the key: it is not stuck.
  auto entry = service.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_GT(entry->due_epoch, service.now());
}

// A rejected challenger journals the key's next due time, and the champion
// it failed to replace keeps its old fitted_at. That champion is then
// older than max_age, but the age half of the staleness policy lives in the
// schedule: the key must wait for the journalled next_due rather than be
// pulled forward (and refitted) on every later tick.
TEST(EstateServiceTest, RejectedChallengerKeepsItsNextDue) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("rejected_next_due");
  config.staleness.max_age_seconds = 4 * kHour;     // refit due at tick 5
  config.staleness.rmse_degradation_factor = 1e9;   // age-only refits
  config.guardrail.promotion_min_scored = 2;
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  const std::string key = service.keys()[0];
  ASSERT_TRUE(service.Start().ok());
  for (int tick = 1; tick <= 4; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  {
    ScopedFault poison("pipeline.poison_fit", FaultPlan::FailForever());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  ASSERT_EQ(service.telemetry().promotions_rejected, 1u);

  auto journal = ReadEvents(config.state_dir + "/journal.log");
  ASSERT_TRUE(journal.ok());
  std::int64_t next_due = 0;
  for (const Event& e : *journal) {
    if (const auto* p = std::get_if<PromotionEvent>(&e.payload)) {
      next_due = p->next_due;
    }
  }
  ASSERT_GT(next_due, service.now() + kHour);  // not due on the next tick
  auto entry = service.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->due_epoch, next_due);

  auto report = service.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->refits_dispatched, 0u);
  ASSERT_TRUE(service.DrainRefits().ok());
  entry = service.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->due_epoch, next_due);
  std::filesystem::remove_all(config.state_dir);
}

}  // namespace
}  // namespace capplan::service
