#include "service/estate_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "common/fault.h"
#include "core/batch_refit.h"
#include "core/selector.h"
#include "core/split.h"
#include "models/arima_spec.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "repo/csv.h"

namespace capplan::service {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// Where a cached forecast first crosses `threshold` at or after `now`: the
// mean path first, the upper bound only when the mean never crosses.
// `covers` is false once the forecast has run out (or is malformed).
struct BreachScan {
  bool covers = false;
  bool breach = false;
  bool upper_only = false;
  std::int64_t epoch = 0;
};

BreachScan ScanForBreach(const CachedForecast& fc, double threshold,
                         std::int64_t now) {
  BreachScan scan;
  const std::int64_t fc_end =
      fc.start_epoch +
      static_cast<std::int64_t>(fc.forecast.mean.size()) * fc.step_seconds;
  if (now >= fc_end || fc.step_seconds <= 0) return scan;
  scan.covers = true;
  // First forecast step at or after the clock.
  std::int64_t first = (now - fc.start_epoch) / fc.step_seconds;
  if ((now - fc.start_epoch) % fc.step_seconds != 0) ++first;
  if (first < 0) first = 0;
  for (const auto* path : {&fc.forecast.mean, &fc.forecast.upper}) {
    for (auto i = static_cast<std::size_t>(first); i < path->size(); ++i) {
      if ((*path)[i] > threshold) {
        scan.breach = true;
        scan.upper_only = path == &fc.forecast.upper;
        scan.epoch =
            fc.start_epoch + static_cast<std::int64_t>(i) * fc.step_seconds;
        return scan;
      }
    }
  }
  return scan;
}

// Snapshot rows, each declared once for writing and loading (the same
// field codecs as the journal).
// snapshot.forecasts.csv; 8 columns = pre-ladder. Loading fills owned
// members; WriteSnapshot streams references into the service's own map.
template <class Key = std::string, class Cached = CachedForecast>
struct ForecastRowOf {
  Key key;
  Cached cached;
  static constexpr std::size_t kLegacyArities[] = {8};
  template <class F>
  void Fields(F& f) {
    f(key, cached.spec, cached);
  }
};
using ForecastRow = ForecastRowOf<>;

struct QualityRow {  // snapshot.quality.csv
  std::string key;
  QualityEvent quality;
  template <class F>
  void Fields(F& f) {
    f(key);
    quality.Fields(f);
  }
};

struct MetaRow {  // snapshot.meta.csv
  std::string field;
  std::int64_t value = 0;
  template <class F>
  void Fields(F& f) {
    f(field, value);
  }
};

}  // namespace

std::string EstateService::KeyFor(const workload::ClusterSimulator& cluster,
                                  const WatchConfig& watch) {
  return repo::MetricsRepository::KeyFor(cluster.InstanceName(watch.instance),
                                         watch.metric);
}

EstateService::EstateService(const workload::ClusterSimulator* cluster,
                             std::vector<WatchConfig> watches,
                             EstateServiceConfig config,
                             agent::FaultModel default_faults)
    : cluster_(cluster),
      watches_(std::move(watches)),
      config_(std::move(config)),
      registry_(config_.staleness),
      pool_(config_.fit_threads) {
  if (config_.refit_batch_size == 0) config_.refit_batch_size = 1;
  agents_.reserve(watches_.size());
  keys_.reserve(watches_.size());
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    const WatchConfig& w = watches_[i];
    agents_.emplace_back(cluster_, w.faults.value_or(default_faults),
                         config_.poll_seconds);
    keys_.push_back(cluster_ != nullptr ? KeyFor(*cluster_, w)
                                        : std::to_string(i));
    watch_index_[keys_.back()] = i;
  }
  const std::size_t n_shards = std::max<std::size_t>(1, config_.n_shards);
  telemetry_.EnsureShards(n_shards);
  obs::SloTracker::Options accuracy_slo;
  if (config_.slo.enabled) {
    accuracy_slo.objective = config_.slo.accuracy_objective;
    accuracy_slo.fast_window_seconds = config_.slo.accuracy_fast_window_seconds;
    accuracy_slo.slow_window_seconds = config_.slo.accuracy_slow_window_seconds;
    obs::SloTracker::Options latency_slo;
    latency_slo.objective = config_.slo.latency_objective;
    latency_slo.fast_window_seconds = config_.slo.latency_fast_window_seconds;
    latency_slo.slow_window_seconds = config_.slo.latency_slow_window_seconds;
    slo_set_ = std::make_shared<obs::SloSet>();
    accuracy_slo_ = slo_set_->Add("forecast_accuracy", accuracy_slo);
    slo_set_->Add("serve_latency", latency_slo);
  }
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    auto shard = std::make_unique<EstateShard>(config_.retry);
    shard->id = s;
    shard->telemetry = &telemetry_.shards[s];
    shard->health = ShardHealth(config_.guardrail.health);
    if (config_.slo.enabled) {
      shard->accuracy_slo = std::make_unique<obs::SloTracker>(accuracy_slo);
    }
    // The unsharded service keeps unlabelled store gauges (the layout every
    // dashboard predates); sharded stores need the shard label so N gauges
    // do not clobber one another on Set.
    obs::LabelSet store_labels;
    if (n_shards > 1) store_labels.push_back({"shard", std::to_string(s)});
    shard->metrics.BindMetrics(telemetry_.registry.get(), store_labels);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    shards_[ShardOf(keys_[i], n_shards)]->watch_ids.push_back(i);
  }
  if (telemetry_.registry != nullptr) {
    view_swaps_ = telemetry_.registry->GetCounter(
        "capplan_serve_view_swaps_total", {},
        "EstateView snapshots published to the serving layer");
  }
  if (n_shards > 1) {
    tick_pool_ = std::make_unique<ThreadPool>(
        std::min(n_shards, core::DefaultThreadCount()));
  }
}

EstateService::~EstateService() = default;

Status EstateService::ForEachShard(
    const std::function<Status(EstateShard*)>& fn) {
  for (const Status& st : MapShards(fn)) CAPPLAN_RETURN_NOT_OK(st);
  return Status::OK();
}

Status EstateService::Start() {
  if (started_) {
    return Status::FailedPrecondition("service: already started");
  }
  if (cluster_ == nullptr) {
    return Status::FailedPrecondition("service: no cluster attached");
  }
  if (watches_.empty()) {
    return Status::InvalidArgument("service: no watches configured");
  }
  if (config_.tick_seconds <= 0 || config_.tick_seconds % 3600 != 0) {
    return Status::InvalidArgument(
        "service: tick_seconds must be a positive multiple of 3600");
  }
  if (!config_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.state_dir, ec);
    if (ec) {
      return Status::IoError("service: cannot create state dir " +
                             config_.state_dir + ": " + ec.message());
    }
    CAPPLAN_ASSIGN_OR_RETURN(journal_, EventJournal::Open(JournalPath()));
  }
  if (config_.warmup_days > 0) {
    const auto t0 = Clock::now();
    const std::int64_t from = cluster_->start_epoch();
    const std::int64_t warmup_end =
        from + static_cast<std::int64_t>(config_.warmup_days) * 86400;
    CAPPLAN_RETURN_NOT_OK(ForEachShard([this, from, warmup_end](
                                           EstateShard* shard) {
      return IngestShard(shard, from, warmup_end);
    }));
    telemetry_.ingest_stage.Record(ElapsedMs(t0));
  }
  CAPPLAN_RETURN_NOT_OK(LoadBaseline(/*from_snapshot=*/false));
  started_ = true;
  PublishView();
  return Status::OK();
}

Status EstateService::IngestShard(EstateShard* shard, std::int64_t from_epoch,
                                  std::int64_t to_epoch,
                                  std::size_t* samples_out) {
  obs::TraceSpan ingest_span("shard.ingest", "service");
  if (to_epoch <= from_epoch) return Status::OK();
  const std::int64_t span = to_epoch - from_epoch;
  if (span % config_.poll_seconds != 0) {
    return Status::InvalidArgument(
        "service: ingest window is not a whole number of polls");
  }
  const std::size_t n_polls =
      static_cast<std::size_t>(span / config_.poll_seconds);
  for (std::size_t id : shard->watch_ids) {
    CAPPLAN_ASSIGN_OR_RETURN(
        tsa::TimeSeries chunk,
        agents_[id].Collect(watches_[id].instance, watches_[id].metric,
                            from_epoch, n_polls));
    chunk.set_name(keys_[id]);
    CAPPLAN_RETURN_NOT_OK(shard->metrics.Append(keys_[id], chunk));
    telemetry_.polls += n_polls;
    telemetry_.samples_ingested += chunk.size();
    telemetry_.hourly_points += static_cast<std::uint64_t>(span / 3600);
    shard->telemetry->samples_ingested.Inc(chunk.size());
    if (samples_out != nullptr) *samples_out += chunk.size();
  }
  return Status::OK();
}

void EstateService::CheckStalenessShard(EstateShard* shard,
                                        std::int64_t now) {
  for (std::size_t id : shard->watch_ids) {
    const std::string& key = keys_[id];
    auto entry = shard->scheduler.Get(key);
    if (entry.ok() && (entry->quarantined || entry->in_flight)) continue;
    if (!registry_.Contains(key)) continue;  // initial fit already scheduled
    auto fc_it = forecasts_.find(key);
    double live_rmse = -1.0;
    if (fc_it != forecasts_.end()) {
      const CachedForecast& fc = fc_it->second;
      const tsa::TimeSeries* hourly = shard->metrics.FindHourly(key);
      if (hourly != nullptr && !hourly->empty()) {
        const std::size_t n = hourly->size();
        const std::size_t begin =
            n > config_.degradation_window_hours
                ? n - config_.degradation_window_hours
                : 0;
        double sum = 0.0;
        std::size_t count = 0;
        for (std::size_t j = begin; j < n; ++j) {
          const double* predicted = fc.MeanAt(hourly->TimestampAt(j));
          const double actual = (*hourly)[j];
          if (predicted == nullptr || std::isnan(actual)) continue;
          const double err = actual - *predicted;
          sum += err * err;
          ++count;
        }
        if (count >= config_.degradation_min_points) {
          live_rmse = std::sqrt(sum / static_cast<double>(count));
        }
      }
    }
    // The age half of the policy is already encoded in the schedule (due =
    // fitted_at + max_age, or the challenger's next_due after a rejected
    // promotion, which leaves the champion's fitted_at behind); only
    // degradation pulls the refit forward.
    if (registry_.IsDegraded(key, live_rmse)) {
      shard->scheduler.PullForward(key, now);
    }
  }
}

void EstateService::ScoreShard(EstateShard* shard, std::int64_t now) {
  if (!config_.guardrail.enabled) return;
  obs::TraceSpan span("guardrail.score", "service");
  for (std::size_t id : shard->watch_ids) {
    const std::string& key = keys_[id];
    const auto fc_it = forecasts_.find(key);
    if (fc_it == forecasts_.end()) continue;
    const CachedForecast& fc = fc_it->second;
    if (fc.step_seconds <= 0 || fc.forecast.mean.empty()) continue;
    const tsa::TimeSeries* hourly = shard->metrics.FindHourly(key);
    if (hourly == nullptr || hourly->empty()) continue;
    auto entry_it = shard->guardrail.find(key);
    if (entry_it == shard->guardrail.end()) {
      EstateShard::GuardrailEntry fresh;
      fresh.tracker = quality::LiveAccuracyTracker(config_.guardrail.tracker);
      // First sight of the key: only points this tick ingested are scored
      // (a recovery re-poll of weeks of history must not flood the
      // detector). The first of them is stamped at the previous tick's
      // cursor, and it is the forecast's first step when the forecast was
      // installed on that tick, so the mark starts just below it.
      fresh.last_scored_epoch = cursor_ - 1;
      entry_it = shard->guardrail.emplace(key, std::move(fresh)).first;
    }
    EstateShard::GuardrailEntry& entry = entry_it->second;
    // Walk back from the tail to the first point newer than the high-water
    // mark: a tick appends a handful of hours while the series holds weeks,
    // so the scan touches only the fresh suffix.
    const std::size_t n = hourly->size();
    std::size_t begin = n;
    while (begin > 0 &&
           hourly->TimestampAt(begin - 1) > entry.last_scored_epoch) {
      --begin;
    }
    bool alarmed = false;
    for (std::size_t j = begin; j < n; ++j) {
      const std::int64_t t = hourly->TimestampAt(j);
      entry.last_scored_epoch = t;
      const double* predicted = fc.MeanAt(t);
      const double actual = (*hourly)[j];
      // A NaN actual is a masked outage, not model error.
      if (predicted == nullptr || std::isnan(actual)) continue;
      const auto scored = entry.tracker.Score(actual, *predicted);
      ++shard->telemetry->guardrail_scored;
      // Feed the forecast-accuracy SLO: the scored point is good when its
      // APE stays within tolerance. Shard tracker drives this shard's
      // health burn signal; the estate tracker drives /v1/slo and the
      // capplan_slo_* export. Both are internally synchronized, so
      // concurrent shard tick jobs may share the estate tracker.
      if (slo_set_ != nullptr) {
        const bool good =
            scored.abs_pct_error <= config_.slo.accuracy_ape_tolerance;
        const double at = static_cast<double>(t);
        shard->accuracy_slo->Record(good, at);
        accuracy_slo_->Record(good, at);
      }
      if (scored.drift_alarm) {
        alarmed = true;
        ++shard->telemetry->guardrail_drift_alarms;
      }
    }
    if (alarmed && config_.guardrail.early_refit_on_drift) {
      // Sustained error shift: pull the key's refit forward — but never
      // through the retry ladder. A key that is backing off, quarantined or
      // already in flight keeps its schedule (the detector auto-reset after
      // the alarm provides a natural min_samples cooldown either way).
      if (const auto sched = shard->scheduler.Get(key);
          sched.ok() && sched->CanPullForwardTo(now)) {
        shard->scheduler.PullForward(key, now);
        ++shard->telemetry->guardrail_early_refits;
      }
    }
  }
}

void EstateService::PrepareBatches(EstateShard* shard, std::int64_t now,
                                   ShardTickOutput* out) {
  // Newly due keys join the back of the shard's queue; they stay in_flight
  // in the scheduler until an outcome (or defer) lands, so a key is never
  // queued twice.
  for (const auto& key : shard->scheduler.TakeDue(now)) {
    shard->refit_queue.push_back(key);
    ++shard->telemetry->queue_enqueued;
  }
  const std::size_t max_batches = config_.max_batches_per_shard_tick;
  std::vector<RefitJobInput> items;
  while (!shard->refit_queue.empty()) {
    if (max_batches > 0 && out->batches.size() >= max_batches) {
      break;  // overload shedding: the rest drains on later ticks
    }
    const std::string key = shard->refit_queue.front();
    shard->refit_queue.pop_front();
    ++shard->telemetry->queue_drained;
    const tsa::TimeSeries* hourly = shard->metrics.FindHourly(key);
    auto policy = core::SplitFor(tsa::Frequency::kHourly);
    const std::size_t needed = policy.ok() ? policy->observations : 1008;
    const std::size_t have = hourly == nullptr ? 0 : hourly->size();
    if (have < needed) {
      // Not enough history yet: come back when the gap has been ingested.
      shard->scheduler.Defer(
          key, now + static_cast<std::int64_t>(needed - have) * 3600);
      ++telemetry_.refits_deferred;
      ++shard->telemetry->refits_deferred;
      continue;
    }
    const std::size_t window_len =
        std::min<std::size_t>(config_.fit_window_hours, have);
    auto window = hourly->Slice(have - window_len, window_len);
    if (!window.ok()) {
      shard->scheduler.Defer(key, now + 3600);
      ++telemetry_.refits_deferred;
      ++shard->telemetry->refits_deferred;
      continue;
    }
    window->set_name(key);
    core::PipelineOptions opts = config_.pipeline;
    opts.model_repository = nullptr;  // driver thread owns registry updates
    opts.n_threads = 1;               // parallelism is across series
    // capplan_select_* metrics from the routing/lattice stages land in the
    // service registry (handles are lock-free, workers record directly).
    opts.metrics = telemetry_.registry.get();
    // Warm-start the grid search from the previous fit of this series: the
    // stored coefficients seed the matching chains in the selector, so a
    // weekly refit of a stable workload converges in a fraction of the
    // cold-fit iterations (the cold re-score keeps the selection itself
    // unchanged).
    if (auto prev = registry_.Get(key); prev.ok()) {
      if (auto spec = models::ParseArimaSpec(prev->spec); spec.ok()) {
        opts.selector_hint.spec = *spec;
        opts.selector_hint.ar = prev->ar_coef;
        opts.selector_hint.ma = prev->ma_coef;
      }
    }
    if (opts.horizon_override == 0) {
      // One fit's forecast must outlive the staleness period.
      opts.horizon_override = static_cast<std::size_t>(
          config_.staleness.max_age_seconds / 3600 + 48);
    }
    if (config_.always_forecast) opts.degrade_on_failure = true;
    RefitJobInput item;
    item.key = key;
    item.window = std::move(*window);
    item.opts = std::move(opts);
    item.fitted_at_epoch = now;
    items.push_back(std::move(item));
    ++telemetry_.refits_dispatched;
    ++shard->telemetry->refits_dispatched;
    ++out->refits_dispatched;
    if (items.size() >= config_.refit_batch_size) {
      out->batches.push_back({shard->id, std::move(items)});
      items.clear();
    }
  }
  if (!items.empty()) {
    out->batches.push_back({shard->id, std::move(items)});
  }
}

EstateService::ShardTickOutput EstateService::TickShard(EstateShard* shard,
                                                        std::int64_t now) {
  obs::TraceSpan span("shard.tick", "service");
  const auto t0 = Clock::now();
  ShardTickOutput out;
  const auto t_ingest = Clock::now();
  out.status = IngestShard(shard, cursor_, now, &out.samples_ingested);
  shard->telemetry->ingest_stage.Record(ElapsedMs(t_ingest));
  if (!out.status.ok()) return out;
  CheckStalenessShard(shard, now);
  ScoreShard(shard, now);
  PrepareBatches(shard, now, &out);
  ++shard->telemetry->ticks;
  const double tick_ms = ElapsedMs(t0);
  shard->telemetry->tick_stage.Record(tick_ms);
  if (config_.guardrail.tick_deadline_ms > 0 &&
      tick_ms > config_.guardrail.tick_deadline_ms) {
    // Watchdog: the shard fell behind its tick budget. Counted here (the
    // tick job is this counter's single writer) and folded into the health
    // state machine by the driver after the join.
    ++shard->tick_overruns;
    ++shard->telemetry->tick_overruns;
    obs::EventLog::Instance().EmitFinished(
        obs::WideEventKind::kTickOverrun, tick_ms, [&](obs::WideEvent& ev) {
          ev.set_key("shard.tick");
          ev.shard = static_cast<std::int32_t>(shard->id);
          ev.span_id = span.id();
          ev.outcome = "overrun";
          ev.AddAttr("deadline_ms", config_.guardrail.tick_deadline_ms);
          ev.AddAttr("samples_ingested",
                     static_cast<double>(out.samples_ingested));
        });
  }
  return out;
}

void EstateService::SubmitBatch(PreparedBatch batch, TickReport& report) {
  ++report.refit_batches;
  EstateShard* shard = shards_[batch.shard].get();
  ++shard->telemetry->refit_batches;
  shard->telemetry->batch_series.Inc(batch.items.size());
  // The job captures copies only, so it stays valid across service shutdown
  // and never races the driver thread. All per-series results plus the
  // batch-level cache stats come back in one BatchOutcome, applied by the
  // driver in CollectFinished.
  in_flight_.push_back(pool_.Submit(
      [items = std::move(batch.items), shard_id = batch.shard,
       quality_opts = config_.quality,
       gate = config_.quality_gate]() -> BatchOutcome {
        obs::TraceSpan batch_span("shard.refit_batch", "service");
        BatchOutcome bo;
        bo.shard = shard_id;
        const auto batch_t0 = Clock::now();
        // One session per batch: the Fourier design columns behind every
        // shared-OLS group are computed for the first series and reused by
        // the rest (identical cadence -> identical design).
        core::RefitBatchSession session;
        bo.outcomes.reserve(items.size());
        for (const RefitJobInput& item : items) {
          obs::TraceSpan refit_span("service.refit", "service");
          FitOutcome out;
          out.key = item.key;
          out.model.fitted_at_epoch = item.fitted_at_epoch;
          out.span_id = refit_span.id();
          const auto t0 = Clock::now();
          // Sentinel pass: classify, repair what is safe, mask outages.
          // An irreparable window (no usable observation) fails the fit
          // outright — retry/backoff/quarantine handle it from there.
          quality::DataQualitySentinel sentinel(quality_opts);
          auto repaired = sentinel.Repair(item.window, &out.quality);
          if (!repaired.ok()) {
            out.status = repaired.status();
            out.wall_ms = ElapsedMs(t0);
            bo.outcomes.push_back(std::move(out));
            continue;
          }
          core::PipelineOptions run_opts = item.opts;
          if (gate && !out.quality.trainable &&
              run_opts.technique != core::Technique::kHes) {
            // Not enough clean signal for the grid: the selection would
            // only overfit the flagged noise. Start on the HES rung.
            run_opts.technique = core::Technique::kHes;
            out.quality_gated = true;
          }
          auto rep = session.Run(*repaired, run_opts);
          out.wall_ms = ElapsedMs(t0);
          if (!rep.ok()) {
            out.status = rep.status();
            bo.outcomes.push_back(std::move(out));
            continue;
          }
          out.status = Status::OK();
          out.model =
              core::ToStoredModel(*rep, item.key, item.fitted_at_epoch);
          repo::StoredModel& model = out.model;
          CachedForecast& fc = out.forecast;
          fc.forecast = std::move(rep->forecast);
          fc.start_epoch = rep->forecast_start_epoch;
          fc.step_seconds = tsa::FrequencySeconds(item.window.frequency());
          fc.degradation = rep->degradation;
          if (out.quality_gated &&
              fc.degradation == core::DegradationLevel::kFull) {
            fc.degradation = core::DegradationLevel::kHesOnly;
          }
          // Chaos sites: a refit that "succeeds" with a ruined model. The
          // first ruins the held-out accuracy (what the promotion gate
          // sees); the second ruins the forecast itself while keeping the
          // reported accuracy clean — the live guardrail must catch it.
          if (FaultFires("pipeline.poison_fit")) {
            model.test_rmse = 1e6;
            model.test_mape = 1e6;
          }
          if (FaultFires("pipeline.poison_forecast")) {
            for (auto* path : {&fc.forecast.mean, &fc.forecast.lower,
                               &fc.forecast.upper}) {
              for (double& v : *path) v = v * 10.0 + 1e3;
            }
          }
          bo.outcomes.push_back(std::move(out));
        }
        const core::RefitBatchSession::Stats stats = session.stats();
        bo.fourier_hits = stats.fourier_hits;
        bo.fourier_misses = stats.fourier_misses;
        bo.wall_ms = ElapsedMs(batch_t0);
        return bo;
      }));
}

void EstateService::CollectFinished(bool block, std::int64_t now,
                                    TickReport& report) {
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const bool ready =
        block ||
        it->wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    if (!ready) {
      ++it;
      continue;
    }
    BatchOutcome batch = it->get();
    for (const FitOutcome& outcome : batch.outcomes) {
      CommitOutcome(outcome, now, report);
    }
    ShardTelemetry* st = shards_[batch.shard]->telemetry;
    st->fourier_hits.Inc(batch.fourier_hits);
    st->fourier_misses.Inc(batch.fourier_misses);
    st->refit_batch_stage.Record(batch.wall_ms);
    it = in_flight_.erase(it);
  }
}

void EstateService::CommitOutcome(const FitOutcome& outcome, std::int64_t now,
                                  TickReport& report) {
  const std::string& key = outcome.key;
  EstateShard& shard = ShardForKey(key);
  if (outcome.quality_gated) ++telemetry_.quality_gated;
  // Every journal event from this outcome carries the worker's refit span
  // id, so a replayed failure can be located in the trace dump.
  Commit({now, key, QualityEvent{outcome.quality}, outcome.span_id});
  // Flight recorder: one wide event per refit, sharing the worker's span id
  // with the journal events above (the /v1/debug <-> journal correlation
  // contract) and feeding the fit-stage histogram's exemplar slot so a
  // latency outlier links straight back to this record.
  const quality::QualityReport& q = outcome.quality;
  const std::uint64_t refit_event_id = EmitEvent(
      obs::WideEventKind::kRefit, key, outcome.span_id,
      outcome.status.ok() ? "ok" : "error",
      {{"test_mape", outcome.model.test_mape},
       {"degradation", static_cast<int>(outcome.forecast.degradation)},
       {"quality_score", q.score}},
      outcome.wall_ms);
  if (refit_event_id != 0 &&
      (q.short_gaps_filled > 0 || q.long_outages > 0 || q.masked_leading > 0)) {
    // The sentinel altered the fit window — record what it did.
    EmitEvent(obs::WideEventKind::kQualityRepair, key, outcome.span_id,
              q.trainable ? "ok" : "gated",
              {{"score", q.score},
               {"gaps_filled", static_cast<double>(q.short_gaps_filled)},
               {"long_outages", static_cast<double>(q.long_outages)},
               {"masked_leading", static_cast<double>(q.masked_leading)}});
  }
  telemetry_.fit_stage.RecordWithExemplar(outcome.wall_ms, outcome.span_id,
                                          refit_event_id);
  if (!outcome.status.ok()) {
    // The retry ladder's verdict: back off, or quarantine.
    const ScheduleEntry failed = shard.scheduler.AfterFailure(key, now);
    ++telemetry_.refits_failed;
    ++report.refits_failed;
    Commit({now, key,
            FitFailEvent{failed.consecutive_failures,
                         failed.quarantined ? -1 : failed.due_epoch,
                         outcome.status.ToString()},
            outcome.span_id});
    if (failed.quarantined) {
      ++telemetry_.quarantines;
      Commit({now, key, QuarantineEvent{}, outcome.span_id});
    }
    return;
  }
  // The finished fit is a *challenger*. The current champion's live
  // rolling MAPE (percent) is the accuracy bar; with enough scored
  // evidence, a challenger whose held-out MAPE regresses past tolerance
  // is rejected and the champion keeps serving. Either way the refit
  // completed.
  ++telemetry_.refits_succeeded;
  ++report.refits_completed;
  const std::int64_t next_due =
      outcome.model.fitted_at_epoch + config_.staleness.max_age_seconds;
  const auto g = shard.guardrail.find(key);
  quality::LiveAccuracyTracker* tracker =
      g == shard.guardrail.end() ? nullptr : &g->second.tracker;
  double champion_live_pct = -1.0;
  std::size_t champion_scored = 0;
  if (tracker != nullptr) {
    if (tracker->live_mape() >= 0.0) {
      champion_live_pct = tracker->live_mape() * 100.0;
    }
    champion_scored = tracker->window_size();
  }
  const auto champion = registry_.Get(key);
  if (config_.guardrail.enabled && champion.ok() && champion_live_pct >= 0.0 &&
      champion_scored >= config_.guardrail.promotion_min_scored) {
    const double reference = std::max(
        champion_live_pct, config_.guardrail.reference_mape_floor_pct);
    if (outcome.model.test_mape >
        config_.guardrail.promotion_tolerance_ratio * reference) {
      // Gate says no: the champion (model, forecast, tracker baseline)
      // stays exactly as it is and the key reschedules normally — only the
      // install is refused.
      ++telemetry_.promotions_rejected;
      ++report.promotions_rejected;
      Commit({now, key,
              PromotionEvent{"reject", outcome.model.technique,
                             outcome.model.spec, outcome.model.test_mape,
                             champion_live_pct, next_due},
              outcome.span_id});
      EmitEvent(obs::WideEventKind::kPromotion, key, outcome.span_id,
                "rejected",
                {{"challenger_mape", outcome.model.test_mape},
                 {"champion_live_mape", champion_live_pct}});
      return;
    }
  }
  // The demoted champion's final live accuracy is the bar a rollback to it
  // compares against.
  FitOkEvent fit{outcome.model, outcome.forecast, q.score,
                 champion.ok() ? champion_live_pct : -1.0};
  fit.model.generation = champion.ok() ? champion->generation + 1 : 1;
  fit.model.promoted_at_epoch = now;
  const int generation = fit.model.generation;
  Commit({now, key, std::move(fit), outcome.span_id});
  ++telemetry_.promotions;
  // The new champion is judged only on its own errors.
  if (tracker != nullptr) tracker->ResetBaseline();
  if (outcome.forecast.degradation != core::DegradationLevel::kFull) {
    ++telemetry_.refits_degraded;
    ++report.refits_degraded;
  }
  EmitEvent(obs::WideEventKind::kPromotion, key, outcome.span_id, "promoted",
            {{"generation", generation},
             {"test_mape", outcome.model.test_mape}});
}

void EstateService::EvaluateAlerts(std::int64_t now, TickReport& report) {
  obs::TraceSpan span("service.alerts", "service");
  const auto t0 = Clock::now();
  std::vector<Event> transitions;
  for (const auto& key : keys_) {
    auto it = forecasts_.find(key);
    if (it == forecasts_.end()) continue;
    const BreachScan scan = ScanForBreach(
        it->second, watches_[watch_index_.at(key)].threshold, now);
    if (!scan.covers) {
      ++telemetry_.forecast_exhausted_ticks;
      continue;
    }
    ++telemetry_.forecast_cache_hits;
    // Only transitions are events; an active alert's prognosis follows the
    // forecast when the tick is applied.
    const bool active = alerts_.count(key) > 0;
    if (scan.breach && !active) {
      transitions.push_back(
          {now, key, AlertEvent{scan.upper_only, scan.epoch}});
    } else if (!scan.breach && active) {
      transitions.push_back({now, key, AlertClearEvent{}});
    }
  }
  telemetry_.forecast_stage.Record(ElapsedMs(t0));

  const auto t1 = Clock::now();
  for (Event& tr : transitions) {
    const bool raise = tr.kind() == EventKind::kAlert;
    Commit(std::move(tr));
    ++(raise ? telemetry_.alerts_raised : telemetry_.alerts_cleared);
    ++(raise ? report.alerts_raised : report.alerts_cleared);
  }
  telemetry_.alert_stage.Record(ElapsedMs(t1));
}

void EstateService::EvaluateGuardrails(std::int64_t now, TickReport& report) {
  if (!config_.guardrail.enabled) return;
  for (auto& shard_ptr : shards_) {
    EstateShard& shard = *shard_ptr;
    double worst_mape = 0.0;
    double worst_stat = 0.0;
    double most_samples = 0.0;
    for (auto& [key, entry] : shard.guardrail) {
      const double frac = entry.tracker.live_mape();
      const core::PageHinkleyDetector& det = entry.tracker.detector();
      if (frac > worst_mape) worst_mape = frac;
      if (det.statistic() > worst_stat) worst_stat = det.statistic();
      if (static_cast<double>(det.samples_seen()) > most_samples) {
        most_samples = static_cast<double>(det.samples_seen());
      }
      // Live-regression rollback: only for keys with a full lineage pair
      // (previous model in the registry slot AND its forecast), enough
      // scored evidence, and a live MAPE past the regression ratio.
      if (frac < 0.0 ||
          entry.tracker.window_size() < config_.guardrail.rollback_min_scored) {
        continue;
      }
      const double live_pct = frac * 100.0;
      const auto pf = previous_forecasts_.find(key);
      if (pf == previous_forecasts_.end()) continue;
      const auto prev = registry_.GetPrevious(key);
      if (!prev.ok()) continue;
      const double reference = std::max(
          prev->live_mape >= 0.0 ? prev->live_mape : prev->test_mape,
          config_.guardrail.reference_mape_floor_pct);
      if (live_pct <= config_.guardrail.rollback_regression_ratio * reference) {
        continue;
      }
      obs::TraceSpan span("guardrail.rollback", "service");
      RollbackEvent rollback{*prev, pf->second, -1};
      // The restored champion is old by definition — refit it soon, but
      // through the same backoff-respecting gate as a drift alarm; a key
      // that is backing off, quarantined or in flight keeps its due time.
      if (const auto sched = shard.scheduler.Get(key); sched.ok()) {
        rollback.next_due =
            sched->CanPullForwardTo(now) ? now : sched->due_epoch;
      }
      const int generation = rollback.model.generation;
      Commit({now, key, std::move(rollback)});
      entry.tracker.ResetBaseline();
      ++telemetry_.rollbacks;
      ++shard.rollbacks;
      ++report.rollbacks;
      EmitEvent(obs::WideEventKind::kRollback, key, span.id(), "rolled_back",
                {{"live_mape", live_pct},
                 {"reference_mape", reference},
                 {"generation", generation}});
    }
    shard.telemetry->guardrail_live_mape.Set(std::max(0.0, worst_mape));
    shard.telemetry->guardrail_ph_statistic.Set(worst_stat);
    shard.telemetry->guardrail_ph_samples.Set(most_samples);
  }
}

std::uint64_t EstateService::EmitEvent(
    obs::WideEventKind kind, const std::string& key, std::uint64_t span_id,
    const char* outcome,
    std::initializer_list<std::pair<const char*, double>> attrs,
    double dur_ms) {
  return obs::EventLog::Instance().EmitFinished(
      kind, dur_ms, [&](obs::WideEvent& ev) {
        ev.set_key(key);
        ev.shard = static_cast<std::int32_t>(ShardOfKey(key));
        ev.span_id = span_id;
        ev.journal_seq = journal_seq_;
        ev.outcome = outcome;
        for (const auto& [name, value] : attrs) ev.AddAttr(name, value);
      });
}

void EstateService::EvaluateHealth() {
  // Journal/snapshot write failures are estate-wide (one journal, one
  // snapshot path, all appended by the driver), so every shard's machine
  // sees the same cumulative I/O count — a dying disk is everyone's
  // problem, and any shard already critical for its own reasons stays so.
  const std::uint64_t io_errors = telemetry_.io_errors.value();
  for (auto& shard_ptr : shards_) {
    EstateShard& shard = *shard_ptr;
    HealthSignals signals;
    signals.tick_overruns = shard.tick_overruns;
    signals.refit_queue_depth = shard.refit_queue.size();
    signals.quarantined_keys = shard.scheduler.QuarantinedKeys().size();
    signals.rollbacks = shard.rollbacks;
    signals.io_errors = io_errors;
    if (shard.accuracy_slo != nullptr) {
      // Evaluate at the estate clock; the tracker clamps to its own newest
      // scored point, so a shard with no fresh scores holds its last burn.
      const obs::SloTracker::Burn burn =
          shard.accuracy_slo->Evaluate(static_cast<double>(now_));
      signals.slo_fast_burn = burn.fast_burn;
      signals.slo_slow_burn = burn.slow_burn;
    }
    const std::uint64_t before = shard.health.transitions();
    shard.health.Evaluate(signals);
    const std::uint64_t after = shard.health.transitions();
    if (after > before) {
      shard.telemetry->health_transitions.Inc(after - before);
    }
    shard.telemetry->health_state.Set(
        static_cast<double>(static_cast<int>(shard.health.state())));
  }
}

HealthState EstateService::OverallHealth() const {
  HealthState worst = HealthState::kHealthy;
  for (const auto& shard : shards_) {
    if (shard->health.state() > worst) worst = shard->health.state();
  }
  return worst;
}

double EstateService::LiveMapeFor(const std::string& key) const {
  const EstateShard& shard = ShardForKey(key);
  const auto it = shard.guardrail.find(key);
  if (it == shard.guardrail.end()) return -1.0;
  const double frac = it->second.tracker.live_mape();
  return frac < 0.0 ? -1.0 : frac * 100.0;
}

void EstateService::PublishView() {
  std::vector<std::vector<serve::InstanceStatus>> shard_rows(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const EstateShard& shard = *shards_[s];
    shard_rows[s].reserve(shard.watch_ids.size());
    for (std::size_t id : shard.watch_ids) {
      const std::string& key = keys_[id];
      serve::InstanceStatus row;
      row.key = key;
      const WatchConfig& watch = watches_[id];
      row.instance =
          cluster_ != nullptr ? cluster_->InstanceName(watch.instance) : key;
      row.metric = workload::MetricName(watch.metric);
      row.threshold = watch.threshold;
      if (const auto fit = forecasts_.find(key); fit != forecasts_.end()) {
        row.has_forecast = true;
        row.forecast = fit->second.forecast;
        row.forecast_start_epoch = fit->second.start_epoch;
        row.forecast_step_seconds = fit->second.step_seconds;
        row.spec = fit->second.spec;
        row.degradation = fit->second.degradation;
      }
      if (const auto q = quality_.find(key); q != quality_.end()) {
        row.quality_score = q->second.score;
        row.trainable = q->second.trainable;
        row.quality_verdict = q->second.verdict;
      }
      if (const auto alert = alerts_.find(key); alert != alerts_.end()) {
        row.alert_active = true;
        row.alert_upper_only = alert->second.upper_only;
        row.predicted_breach_epoch = alert->second.predicted_breach_epoch;
      }
      if (config_.view_recent_hours > 0) {
        if (auto tail =
                shard.metrics.HourlyTail(key, config_.view_recent_hours);
            tail.ok() && !tail->empty()) {
          row.recent = tail->values();
          row.recent_start_epoch = tail->start_epoch();
        }
      }
      // Decompose inputs: the champion's detected periods plus a tail long
      // enough for STL over the longest season (docs/selection.md).
      if (const auto model = registry_.Get(key); model.ok()) {
        row.periods = model->periods;
      }
      if (config_.view_history_hours > 0) {
        if (auto tail =
                shard.metrics.HourlyTail(key, config_.view_history_hours);
            tail.ok() && !tail->empty()) {
          row.history = tail->values();
          row.history_start_epoch = tail->start_epoch();
        }
      }
      shard_rows[s].push_back(std::move(row));
    }
  }
  auto view = serve::MergeShardRows(now_, ticks_, std::move(shard_rows));
  view->shard_health.reserve(shards_.size());
  int overall = 0;
  for (const auto& shard : shards_) {
    serve::ShardHealthStatus hs;
    hs.shard = shard->id;
    hs.state = static_cast<int>(shard->health.state());
    hs.state_name = HealthStateName(shard->health.state());
    hs.reason = shard->health.reason();
    hs.refit_queue_depth = shard->refit_queue.size();
    hs.quarantined = shard->scheduler.QuarantinedKeys().size();
    hs.tick_overruns = shard->tick_overruns;
    hs.rollbacks = shard->rollbacks;
    if (hs.state > overall) overall = hs.state;
    view->shard_health.push_back(std::move(hs));
  }
  view->overall_health = overall;
  view_channel_.Publish(std::move(view));
  view_swaps_.Inc();
}

Result<TickReport> EstateService::Tick() {
  obs::TraceSpan span("service.tick", "service");
  if (!started_) {
    return Status::FailedPrecondition("service: not started");
  }
  TickReport report;
  const std::int64_t now = now_ + (1 + failed_ticks_) * config_.tick_seconds;
  report.now_epoch = now;

  // Per-shard phase: ingest, staleness, due-taking and batch preparation
  // run as one job per shard (inline when unsharded). Shard state is only
  // ever touched by its own job; the driver joins every job before reading
  // the outputs, so nothing below races.
  const auto t0 = Clock::now();
  std::vector<ShardTickOutput> outputs = MapShards(
      [this, now](EstateShard* shard) { return TickShard(shard, now); });
  telemetry_.ingest_stage.Record(ElapsedMs(t0));
  // The clock and cursor only advance once every shard ingested its slice
  // (the tick event below): a failed tick leaves the window un-consumed, so
  // the next tick backfills it and no sample is lost.
  for (const ShardTickOutput& out : outputs) {
    if (!out.status.ok()) {
      ++failed_ticks_;
      return out.status;
    }
  }
  failed_ticks_ = 0;
  for (ShardTickOutput& out : outputs) {
    report.samples_ingested += out.samples_ingested;
    report.refits_dispatched += out.refits_dispatched;
    for (PreparedBatch& batch : out.batches) {
      SubmitBatch(std::move(batch), report);
    }
  }

  CollectFinished(/*block=*/false, now, report);
  EvaluateGuardrails(now, report);
  EvaluateAlerts(now, report);

  // Durability failures do not stop the clock: a tick that cannot be
  // journalled or snapshotted is still a served tick, counted as an
  // absorbed I/O error (Commit counts its own failures).
  (void)Commit({now, "", TickEvent{}});
  ++telemetry_.ticks;
  if (config_.snapshot_every_ticks > 0 && !config_.state_dir.empty() &&
      ticks_ % static_cast<std::uint64_t>(config_.snapshot_every_ticks) ==
          0) {
    if (Status st = WriteSnapshot(); !st.ok()) {
      ++telemetry_.snapshot_failures;
      ++telemetry_.io_errors;
    }
  }
  // Health folds in last, so the machine sees this tick's final queue
  // depths, rollbacks and absorbed I/O errors before the view freezes them.
  EvaluateHealth();
  PublishView();
  return report;
}

Status EstateService::RunTicks(int n) {
  for (int i = 0; i < n; ++i) {
    auto report = Tick();
    if (!report.ok()) return report.status();
  }
  return Status::OK();
}

Status EstateService::DrainRefits() {
  if (!started_) {
    return Status::FailedPrecondition("service: not started");
  }
  TickReport drained;  // counted in telemetry, reported by no tick
  CollectFinished(/*block=*/true, now_, drained);
  PublishView();
  return Status::OK();
}

Status EstateService::Checkpoint() {
  if (config_.state_dir.empty()) {
    return Status::FailedPrecondition("service: no state_dir configured");
  }
  CAPPLAN_RETURN_NOT_OK(DrainRefits());
  Status st = WriteSnapshot();
  if (!st.ok()) {
    // An explicit checkpoint propagates the failure (the caller asked for
    // durability), but it still shows up in the absorbed-error counters so
    // dashboards see one consistent I/O health signal.
    ++telemetry_.snapshot_failures;
    ++telemetry_.io_errors;
  }
  return st;
}

Status EstateService::ReleaseQuarantine(const std::string& key) {
  if (!IsQuarantined(key)) {
    return Status::FailedPrecondition("service: " + key +
                                      " is not quarantined");
  }
  return Commit({now_, key, ReleaseEvent{}});
}

core::DegradationLevel EstateService::ForecastDegradation(
    const std::string& key) const {
  auto it = forecasts_.find(key);
  return it == forecasts_.end() ? core::DegradationLevel::kFull
                                : it->second.degradation;
}

std::vector<ServiceAlert> EstateService::ActiveAlerts() const {
  std::vector<ServiceAlert> alerts;
  alerts.reserve(alerts_.size());
  for (const auto& [_, a] : alerts_) alerts.push_back(a);
  return alerts;
}

std::vector<std::string> EstateService::ShardKeys(std::size_t shard) const {
  std::vector<std::string> keys;
  keys.reserve(shards_[shard]->watch_ids.size());
  for (std::size_t id : shards_[shard]->watch_ids) keys.push_back(keys_[id]);
  return keys;
}

std::size_t EstateService::series_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->metrics.size();
  return total;
}

std::vector<std::string> EstateService::QuarantinedKeys() const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    auto q = shard->scheduler.QuarantinedKeys();
    keys.insert(keys.end(), q.begin(), q.end());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<ScheduleEntry> EstateService::ScheduleEntries() const {
  std::vector<ScheduleEntry> entries;
  for (const auto& shard : shards_) {
    auto e = shard->scheduler.Entries();
    entries.insert(entries.end(), std::make_move_iterator(e.begin()),
                   std::make_move_iterator(e.end()));
  }
  std::sort(entries.begin(), entries.end(),
            [](const ScheduleEntry& a, const ScheduleEntry& b) {
              return a.key < b.key;
            });
  return entries;
}

std::size_t EstateService::schedule_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->scheduler.size();
  return total;
}

std::size_t EstateService::RefitQueueDepth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->refit_queue.size();
  return total;
}

std::string EstateService::JournalPath() const {
  return config_.state_dir + "/journal.log";
}

std::string EstateService::ShardSegmentDir(std::size_t shard) const {
  return config_.state_dir + "/shard_" + std::to_string(shard);
}

Status EstateService::WritePrometheus(const std::string& path) const {
  obs::MetricsRegistry* registry = telemetry_.registry.get();
  // Refresh the scrape-time families before collecting: ring drop totals
  // from the flight-recorder singletons and the SLO burn rates. The serve
  // handler does the same on /metrics; either export path is current.
  // (Handle copies write through to the shared cells.)
  obs::Counter trace_dropped = telemetry_.obs_trace_dropped;
  trace_dropped = obs::Tracer::Instance().total_dropped();
  obs::Counter events_dropped = telemetry_.obs_events_dropped;
  events_dropped = obs::EventLog::Instance().total_dropped();
  if (slo_set_ != nullptr) {
    obs::ExportSloMetrics(*slo_set_, registry, static_cast<double>(now_));
  }
  return obs::WritePrometheusFile(registry->Collect(), path);
}

Status EstateService::DumpTrace(const std::string& path) const {
  return obs::WriteChromeTraceFile(obs::Tracer::Instance().Drain(), path);
}

Status EstateService::WriteSnapshot() {
  obs::TraceSpan span("service.snapshot", "service");
  const std::string& dir = config_.state_dir;
  CAPPLAN_RETURN_NOT_OK(registry_.Save(dir + "/snapshot.registry.csv"));

  // One merged schedule CSV for the whole estate (same format as the
  // unsharded service ever wrote); rows route back to their shard by key
  // hash on recovery.
  CAPPLAN_RETURN_NOT_OK(RetrainScheduler::SaveEntries(
      dir + "/snapshot.schedule.csv", ScheduleEntries()));

  CAPPLAN_RETURN_NOT_OK(repo::WriteRows(
      dir + "/snapshot.forecasts.csv",
      {"key", "spec", "start_epoch", "step_seconds", "level", "mean", "lower",
       "upper", "degradation"},
      forecasts_, [](FieldWriter& fields, const auto& entry) {
        fields(ForecastRowOf<const std::string&, const CachedForecast&>{
            entry.first, entry.second});
      }));
  CAPPLAN_RETURN_NOT_OK(repo::WriteRows(
      dir + "/snapshot.alerts.csv",
      {"key", "upper_only", "predicted_breach_epoch", "raised_at_epoch"},
      alerts_,
      [](FieldWriter& fields, const auto& entry) { fields(entry.second); }));
  CAPPLAN_RETURN_NOT_OK(repo::WriteRows(
      dir + "/snapshot.quality.csv", {"key", "score", "trainable", "verdict"},
      quality_, [](FieldWriter& fields, const auto& entry) {
        fields(QualityRow{entry.first, {entry.second}});
      }));
  CAPPLAN_RETURN_NOT_OK(repo::WriteRows(
      dir + "/snapshot.meta.csv", {"field", "value"},
      std::vector<MetaRow>{{"now_epoch", now_},
                           {"cursor_epoch", cursor_},
                           {"ticks", static_cast<std::int64_t>(ticks_)}}));

  // The metric history itself, as compressed segments (store/segment.h) —
  // what Recover restarts from instead of re-polling the whole estate. Each
  // shard flushes its slice into its own segment directory; a failed flush
  // fails the snapshot as a whole, and the tick loop absorbs it and retries
  // at the next snapshot interval.
  for (const auto& shard : shards_) {
    const std::string shard_dir = ShardSegmentDir(shard->id);
    std::error_code ec;
    std::filesystem::create_directories(shard_dir, ec);
    if (ec) {
      return Status::IoError("service: cannot create segment dir " +
                             shard_dir + ": " + ec.message());
    }
    CAPPLAN_RETURN_NOT_OK(shard->metrics.SaveSegments(shard_dir));
  }

  CAPPLAN_RETURN_NOT_OK(Commit({now_, "", SnapshotEvent{}}));
  ++telemetry_.snapshots_written;
  return Status::OK();
}

Status EstateService::Commit(Event event) {
  Status st = Status::OK();
  if (journal_.is_open()) {  // an ephemeral service journals nothing
    if (event.span_id == 0) event.span_id = obs::CurrentSpanId();
    st = journal_.Append(event);
    if (st.ok()) {
      ++telemetry_.journal_events;
      ++journal_seq_;
    } else {
      // Availability beats durability: callers keep serving with a
      // degraded journal, and the counters make the durability gap
      // visible. Recovery from such a journal is still consistent — it
      // just replays less.
      ++telemetry_.journal_write_failures;
      ++telemetry_.io_errors;
    }
  }
  Apply(event);
  return st;
}

void EstateService::Apply(const Event& event) {
  const std::string& key = event.key;
  switch (event.kind()) {
    case EventKind::kTick: {
      now_ = event.epoch;
      cursor_ = event.epoch;
      ++ticks_;
      // A prognosis still ahead of the clock stands: no step between the
      // scan that found it and the breach crosses (a new forecast rescans).
      for (auto& [_, alert] : alerts_) {
        if (alert.predicted_breach_epoch < now_) RefreshPrognosis(&alert);
      }
      return;
    }
    case EventKind::kFitOk: {
      const auto& fit = std::get<FitOkEvent>(event.payload);
      repo::StoredModel model = fit.model;
      model.key = key;
      CachedForecast cached = fit.forecast;
      cached.spec = model.technique + " " + model.spec;
      if (model.generation > 0) {
        // A promotion: the champion (stamped with its final live accuracy)
        // and its forecast become the rollback pair.
        if (registry_.Contains(key)) {
          if (fit.demoted_live_mape >= 0.0) {
            registry_.UpdateLiveMape(key, fit.demoted_live_mape);
          }
          if (const auto fc = forecasts_.find(key); fc != forecasts_.end()) {
            previous_forecasts_[key] = fc->second;
          }
        }
        registry_.Promote(std::move(model));
      } else {
        registry_.Put(model);  // pre-lineage layout: lineage-neutral
      }
      forecasts_[key] = std::move(cached);
      if (const auto a = alerts_.find(key); a != alerts_.end()) {
        RefreshPrognosis(&a->second);
      }
      ShardForKey(key).scheduler.OnSuccess(
          key, fit.model.fitted_at_epoch + config_.staleness.max_age_seconds);
      return;
    }
    case EventKind::kFitFail: {
      const auto& fail = std::get<FitFailEvent>(event.payload);
      const bool quarantined = fail.next_due < 0;
      ShardForKey(key).scheduler.Restore(
          {key, quarantined ? event.epoch : fail.next_due,
           fail.consecutive_failures, quarantined});
      return;
    }
    case EventKind::kQuarantine: {  // keeps the failure count
      RetrainScheduler& scheduler = ShardForKey(key).scheduler;
      const int failures = scheduler.Get(key)
                               .value_or(ScheduleEntry{})
                               .consecutive_failures;
      scheduler.Restore({key, event.epoch, failures, /*quarantined=*/true});
      return;
    }
    case EventKind::kRelease:
      ShardForKey(key).scheduler.Restore({key, event.epoch});
      return;
    case EventKind::kAlert: {
      const auto& raised = std::get<AlertEvent>(event.payload);
      alerts_[key] = {key, raised.upper_only, raised.predicted_breach_epoch,
                      event.epoch};
      return;
    }
    case EventKind::kAlertClear:
      alerts_.erase(key);
      return;
    case EventKind::kSnapshot:
      return;
    case EventKind::kQuality: {
      quality::QualityReport report =
          std::get<QualityEvent>(event.payload).report;
      report.key = key;
      quality_[key] = std::move(report);
      return;
    }
    case EventKind::kPromotion:
      // A rejected challenger: the champion stays, only the schedule moves.
      ShardForKey(key).scheduler.OnSuccess(
          key, std::get<PromotionEvent>(event.payload).next_due);
      return;
    case EventKind::kRollback: {
      const auto& rollback = std::get<RollbackEvent>(event.payload);
      repo::StoredModel model = rollback.model;
      model.key = key;
      CachedForecast cached = rollback.forecast;
      cached.spec = model.technique + " " + model.spec;
      registry_.Reinstate(model);
      forecasts_[key] = std::move(cached);
      previous_forecasts_.erase(key);
      if (const auto a = alerts_.find(key); a != alerts_.end()) {
        RefreshPrognosis(&a->second);
      }
      // Only ever earlier: a key that kept its due time (backing off,
      // quarantined, in flight) keeps its failure count and flags too.
      if (rollback.next_due >= 0) {
        ShardForKey(key).scheduler.PullForward(key, rollback.next_due);
      }
      return;
    }
  }
}

void EstateService::RefreshPrognosis(ServiceAlert* alert) const {
  const auto fc = forecasts_.find(alert->key);
  const auto watch = watch_index_.find(alert->key);
  if (fc == forecasts_.end() || watch == watch_index_.end()) return;
  const BreachScan scan =
      ScanForBreach(fc->second, watches_[watch->second].threshold, now_);
  if (scan.breach) {
    alert->upper_only = scan.upper_only;
    alert->predicted_breach_epoch = scan.epoch;
  }
}

Status EstateService::LoadBaseline(bool from_snapshot) {
  now_ = cluster_->start_epoch() +
         static_cast<std::int64_t>(std::max(0, config_.warmup_days)) * 86400;
  cursor_ = now_;
  ticks_ = 0;
  const std::string& dir = config_.state_dir;
  if (from_snapshot) {
    CAPPLAN_RETURN_NOT_OK(registry_.Load(dir + "/snapshot.registry.csv"));
    // The schedule snapshot is one merged CSV; rows route back to their
    // shard's scheduler by the same key hash that placed them.
    CAPPLAN_ASSIGN_OR_RETURN(
        std::vector<ScheduleEntry> schedule,
        repo::ReadRows<ScheduleEntry>(dir + "/snapshot.schedule.csv"));
    for (auto& entry : schedule) {
      ShardForKey(entry.key).scheduler.Restore(std::move(entry));
    }
    CAPPLAN_ASSIGN_OR_RETURN(
        std::vector<ForecastRow> forecasts,
        repo::ReadRows<ForecastRow>(dir + "/snapshot.forecasts.csv"));
    for (auto& row : forecasts) forecasts_[row.key] = std::move(row.cached);
    CAPPLAN_ASSIGN_OR_RETURN(
        std::vector<ServiceAlert> alerts,
        repo::ReadRows<ServiceAlert>(dir + "/snapshot.alerts.csv"));
    for (auto& alert : alerts) alerts_[alert.key] = alert;
    // Snapshots written before quality reports were persisted have none.
    if (const std::string path = dir + "/snapshot.quality.csv";
        std::filesystem::exists(path)) {
      CAPPLAN_ASSIGN_OR_RETURN(std::vector<QualityRow> quality,
                               repo::ReadRows<QualityRow>(path));
      for (auto& row : quality) {
        row.quality.report.key = row.key;
        quality_[row.key] = std::move(row.quality.report);
      }
    }
    CAPPLAN_ASSIGN_OR_RETURN(
        std::vector<MetaRow> meta,
        repo::ReadRows<MetaRow>(dir + "/snapshot.meta.csv"));
    for (const MetaRow& row : meta) {
      if (row.field == "now_epoch") now_ = row.value;
      if (row.field == "cursor_epoch") cursor_ = row.value;
      if (row.field == "ticks") ticks_ = static_cast<std::uint64_t>(row.value);
    }
  }
  // Keys the baseline does not know start due now: every key on a fresh
  // start, a watch added since the snapshot otherwise.
  for (const auto& key : keys_) {
    RetrainScheduler& scheduler = ShardForKey(key).scheduler;
    if (!scheduler.Get(key).ok()) scheduler.ScheduleAt(key, now_);
  }
  return Status::OK();
}

Status EstateService::RecoverShardHistory(EstateShard* shard) {
  // Prefer the shard's compressed segment snapshot: it holds the exact
  // persisted samples, so only the suffix collected after the last flush
  // needs re-polling. When the segments are missing, damaged, inconsistent,
  // or laid out for a different shard count (a resize remapped the keys),
  // fall back to a full re-poll — the simulated agents are pure functions
  // of (scenario, seed, instance, epoch), so re-polling reproduces the
  // shard's slice exactly.
  std::int64_t poll_from = cluster_->start_epoch();
  if (shard->metrics.LoadSegments(ShardSegmentDir(shard->id)).ok()) {
    std::int64_t segments_end = -1;
    bool usable = true;
    for (std::size_t id : shard->watch_ids) {
      auto end = shard->metrics.RawEndEpoch(keys_[id]);
      if (!end.ok() || (segments_end != -1 && *end != segments_end)) {
        usable = false;
        break;
      }
      segments_end = *end;
    }
    // A directory holding series this shard does not own is a stale layout
    // (n_shards changed) — loading it would double-count keys elsewhere.
    usable = usable && shard->metrics.size() == shard->watch_ids.size() &&
             segments_end >= cluster_->start_epoch() &&
             segments_end <= cursor_;
    if (usable) {
      poll_from = segments_end;
    } else {
      shard->metrics.Clear();
    }
  } else {
    shard->metrics.Clear();
  }
  return IngestShard(shard, poll_from, cursor_);
}

Status EstateService::Recover() {
  obs::TraceSpan span("service.recover", "service");
  if (started_) {
    return Status::FailedPrecondition("service: already started");
  }
  if (cluster_ == nullptr) {
    return Status::FailedPrecondition("service: no cluster attached");
  }
  if (config_.state_dir.empty()) {
    return Status::FailedPrecondition("service: no state_dir to recover from");
  }
  CAPPLAN_ASSIGN_OR_RETURN(std::vector<Event> events,
                           ReadEvents(JournalPath()));
  if (events.empty()) {
    return Status::NotFound("service: nothing to recover in " +
                            config_.state_dir);
  }
  // Baseline: the last snapshot, or the fresh post-warmup state; then the
  // journal suffix through the same reducer the live ticks used.
  std::size_t replay_from = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind() == EventKind::kSnapshot) replay_from = i + 1;
  }
  CAPPLAN_RETURN_NOT_OK(LoadBaseline(/*from_snapshot=*/replay_from > 0));
  for (std::size_t i = replay_from; i < events.size(); ++i) Apply(events[i]);
  // The sequence counter resumes at the journal's true length, so wide
  // events emitted after recovery keep pointing at absolute positions in
  // the (re-opened, append-only) journal file.
  journal_seq_ = events.size();

  // Rebuild the metric history, one shard at a time (in parallel when
  // sharded): segments where usable, re-poll otherwise.
  const auto t0 = Clock::now();
  CAPPLAN_RETURN_NOT_OK(ForEachShard(
      [this](EstateShard* shard) { return RecoverShardHistory(shard); }));
  telemetry_.ingest_stage.Record(ElapsedMs(t0));

  CAPPLAN_ASSIGN_OR_RETURN(journal_, EventJournal::Open(JournalPath()));
  started_ = true;
  PublishView();
  return Status::OK();
}

}  // namespace capplan::service
