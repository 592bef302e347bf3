// Figure 8 stand-in: the production monitoring view. The paper shows a
// proprietary UI offering a model choice (HES vs SARIMAX) per instance and
// charting the prediction; this bench renders the same information as a
// terminal dashboard served by service::EstateService — per watched metric:
// the active model, its held-out accuracy, and the threshold prognosis of
// its cached forecast, with the one-week staleness policy deciding refits.
// It reads only the service's public surfaces: the published EstateView
// rows and the model registry.

#include <cstdio>

#include "bench_util.h"
#include "core/capacity.h"
#include "service/estate_service.h"
#include "tsa/calendar.h"

using namespace capplan;

int main() {
  std::printf("=== Figure 8 (stand-in): estate monitoring dashboard ===\n\n");
  workload::ClusterSimulator cluster(workload::WorkloadScenario::Oltp(), 77);

  std::vector<service::WatchConfig> watches;
  for (int inst = 0; inst < cluster.n_instances(); ++inst) {
    // The memory threshold is set just above the growing estate's current
    // level so the trend-driven early warning fires on the busier node —
    // the paper's "performance problem that begins weeks earlier" scenario.
    watches.push_back({inst, workload::Metric::kCpu, 90.0});
    watches.push_back({inst, workload::Metric::kMemory, 8450.0});
    watches.push_back({inst, workload::Metric::kLogicalIops, 6.0e6});
  }

  service::EstateServiceConfig config;
  config.warmup_days = 44;
  config.pipeline.technique = core::Technique::kAuto;  // HES vs SARIMAX
  config.pipeline.max_lag = 6;
  config.refit_batch_size = 1;  // one series per pool job: fits in parallel
  service::EstateService svc(&cluster, watches, config);
  Status st = svc.Start();
  if (st.ok()) st = svc.Tick().status();
  if (st.ok()) st = svc.DrainRefits();
  if (!st.ok()) {
    std::fprintf(stderr, "estate service failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  const auto view = svc.View();
  const std::int64_t now = view->now_epoch;
  std::printf("as of %s UTC\n\n", tsa::FormatTimestamp(now).c_str());
  bench::TablePrinter table({22, 44, 7, 30});
  table.Row({"series", "active model", "MAPE%", "threshold prognosis"});
  table.Rule();
  for (const serve::InstanceStatus& row : view->instances) {
    auto model = svc.registry().Get(row.key);
    if (!row.has_forecast || !model.ok()) {
      table.Row({row.key, "no model yet", "", ""});
      continue;
    }
    auto breach = core::CapacityPlanner::PredictBreach(
        row.forecast, row.threshold, row.forecast_start_epoch,
        row.forecast_step_seconds);
    std::string prognosis;
    if (!breach.ok()) {
      prognosis = "ERROR: " + breach.status().ToString();
    } else if (breach->mean_breach) {
      prognosis =
          "BREACH in " + tsa::FormatDuration(breach->mean_breach_epoch - now);
    } else if (breach->upper_breach) {
      prognosis = "warn (upper bound) in " +
                  tsa::FormatDuration(breach->upper_breach_epoch - now);
    } else {
      prognosis = "ok (" + std::to_string(row.forecast.mean.size()) +
                  "h clear)";
    }
    table.Row({row.key, row.spec, bench::Fmt(model->test_mape, 1), prognosis});
  }
  table.Rule();
  std::printf("\nmodels in registry: %zu (refit policy: 1 week or RMSE "
              "degradation)\n",
              svc.registry().size());
  return 0;
}
