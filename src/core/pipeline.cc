#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "common/fault.h"
#include "core/ensemble.h"
#include "models/arima.h"
#include "models/baselines.h"
#include "models/dshw.h"
#include "models/ets.h"
#include "models/regression.h"
#include "models/tbats.h"
#include "obs/trace.h"
#include "tsa/acf.h"
#include "tsa/interpolate.h"
#include "tsa/metrics.h"
#include "tsa/stationarity.h"

namespace capplan::core {

namespace {

// Prediction-interval level of every forecast the pipeline makes.
constexpr double kIntervalLevel = 0.95;

// The windows one selection runs on: contenders are scored by forecasting
// `test` from `train`, and the winner is refitted on `full` to forecast
// `horizon` steps. With an empty `test` nothing is scored: the accuracy
// report stays empty and the first contender wins.
struct Split {
  const std::vector<double>& train;
  const std::vector<double>& test;
  const std::vector<double>& full;
  std::size_t period;  // the frequency's conventional season
  std::size_t horizon;
};

// Fits a model on `history` and forecasts `horizon` steps from it.
using ForecastFn = std::function<Result<models::Forecast>(
    const std::vector<double>& history, std::size_t horizon)>;

// One contender of a family. It is scored by fitting the training window,
// unless the family already measured it in its own inner search (the
// SARIMAX grid, the TBATS lattice); the winner is refitted on the full
// window.
struct Contender {
  std::string spec;
  ForecastFn forecast;
  std::optional<tsa::AccuracyReport> scored;
};

// A family's contenders for one split, plus the candidate counts the report
// is credited with when the family wins.
struct Contenders {
  std::vector<Contender> list;
  std::size_t evaluated = 0;
  std::size_t succeeded = 1;
  std::size_t pruned = 0;
};

using ContendersFn = Result<Contenders> (*)(const PipelineOptions&, Technique,
                                            const Split&, PipelineReport*);

// A candidate family: what is specific to it. Scoring, the first-best-RMSE
// pick, the winner's full-window refit, the finite check and the report fill
// are RunFamily's, shared by every family and ladder rung.
struct Family {
  const char* name;        // error messages
  const char* span;        // trace span around the family, or nullptr
  const char* fault_site;  // fault-injection site, or nullptr
  ContendersFn contenders;  // may fill family-specific report fields
};

Contender EtsContender(std::string spec, models::EtsSpec ets) {
  return {std::move(spec),
          [ets](const std::vector<double>& history,
                std::size_t horizon) -> Result<models::Forecast> {
            CAPPLAN_ASSIGN_OR_RETURN(models::EtsModel model,
                                     models::EtsModel::Fit(history, ets));
            return model.Predict(horizon, kIntervalLevel);
          },
          std::nullopt};
}

// The exponential-smoothing variants, then the double-seasonal Holt-Winters
// model for hourly data with a weekly second cycle (paper challenge C3
// within the HES family).
Result<Contenders> HesContenders(const PipelineOptions&, Technique,
                                 const Split& s, PipelineReport*) {
  const bool positive = std::none_of(s.train.begin(), s.train.end(),
                                     [](double v) { return v <= 0.0; });
  Contenders out;
  auto add = [&](const char* name, const models::EtsSpec& spec) {
    out.list.push_back(
        EtsContender(std::string(name) + " " + spec.ToString(), spec));
  };
  add("SES", models::SimpleExponentialSmoothing());
  add("Holt", models::HoltLinearTrend(false));
  add("Holt-damped", models::HoltLinearTrend(true));
  if (s.period >= 2) {
    add("HW-additive", models::HoltWinters(s.period, false, false));
    add("HW-additive-damped", models::HoltWinters(s.period, false, true));
    if (positive) {
      add("HW-multiplicative", models::HoltWinters(s.period, true, false));
    }
  }
  if (s.period == 24 && s.train.size() >= 2 * 168 + 24 &&
      s.full.size() >= 2 * 168 + 24) {
    out.list.push_back(
        {"DSHW(24,168)",
         [](const std::vector<double>& history,
            std::size_t horizon) -> Result<models::Forecast> {
           CAPPLAN_ASSIGN_OR_RETURN(models::DshwModel model,
                                    models::DshwModel::Fit(history, 24, 168));
           return model.Predict(horizon, kIntervalLevel);
         },
         std::nullopt});
  }
  out.evaluated = out.list.size();
  return out;
}

// A direct SES fit: no grid, just a smoothed level carried forward, which
// tracks slow drift far better than a constant.
Result<Contenders> SesContenders(const PipelineOptions&, Technique,
                                 const Split& s, PipelineReport*) {
  if (s.full.size() < 8) {
    return Status::ComputeError("SES rung: series too short");
  }
  Contenders out;
  out.list.push_back(
      EtsContender("SES (degraded)", models::SimpleExponentialSmoothing()));
  out.evaluated = 1;
  return out;
}

// Seasonal-naive when `history` spans two seasons, naive otherwise.
Result<models::Forecast> BaselineForecast(const std::vector<double>& history,
                                          std::size_t period,
                                          std::size_t horizon) {
  return period >= 2 && history.size() >= 2 * period
             ? models::SeasonalNaiveForecast(history, period, horizon,
                                             kIntervalLevel)
             : models::NaiveForecast(history, horizon, kIntervalLevel);
}

// The seasonal-naive / naive floor. Needs one finite observation.
Result<Contenders> BaselineContenders(const PipelineOptions&, Technique,
                                      const Split& s, PipelineReport*) {
  const std::size_t period = s.period;
  const bool seasonal = period >= 2 && s.full.size() >= 2 * period;
  Contenders out;
  out.list.push_back(
      {seasonal ? "seasonal-naive(" + std::to_string(period) + ")" : "naive",
       [period](const std::vector<double>& history, std::size_t horizon) {
         return BaselineForecast(history, period, horizon);
       },
       std::nullopt});
  out.evaluated = 1;
  return out;
}

// The AIC-pruned TBATS option lattice on the training window. Its survivors
// are cold-rescored at the oracle budget, so the winning configuration is
// identical to the exhaustive enumeration (docs/selection.md).
Result<Contenders> TbatsContenders(const PipelineOptions& options, Technique,
                                   const Split& s, PipelineReport* report) {
  // Seasonal periods for the trigonometric blocks: the routed seasons,
  // falling back to the frequency's conventional period.
  std::vector<double> periods;
  for (const auto& season : report->seasons) {
    periods.push_back(static_cast<double>(season.period));
  }
  if (periods.empty() && s.period >= 2) {
    periods.push_back(static_cast<double>(s.period));
  }
  lattice::TbatsLatticeOptions lat_opts = options.tbats_lattice;
  lat_opts.n_threads = options.n_threads;
  lat_opts.metrics = options.metrics;
  CAPPLAN_ASSIGN_OR_RETURN(
      lattice::TbatsSelection sel,
      lattice::TbatsLattice(lat_opts).Select(s.train, periods));
  CAPPLAN_ASSIGN_OR_RETURN(models::Forecast test_fc,
                           sel.model.Predict(s.test.size(), kIntervalLevel));
  CAPPLAN_ASSIGN_OR_RETURN(tsa::AccuracyReport acc,
                           tsa::MeasureAccuracy(s.test, test_fc.mean));
  report->tbats_profile = sel.profile;
  Contenders out;
  const models::TbatsConfig config = sel.model.config();
  const int max_iterations = lat_opts.model.max_fit_iterations;
  out.list.push_back(
      {config.ToString(),
       [config, max_iterations](
           const std::vector<double>& history,
           std::size_t horizon) -> Result<models::Forecast> {
         CAPPLAN_ASSIGN_OR_RETURN(
             models::TbatsModel model,
             models::TbatsModel::FitConfig(history, config, max_iterations));
         return model.Predict(horizon, kIntervalLevel);
       },
       acc});
  out.evaluated = sel.profile.evaluated;
  out.pruned = sel.profile.pruned;
  return out;
}

// The (S)ARIMA(X) grid: analyse the correlogram, detect shocks, generate the
// candidate grid (optionally pruned by the PACF) and evaluate it in parallel
// with ModelSelector. Its one contender is the grid winner, or with
// ensemble_top_k > 1 the inverse-RMSE-weighted combination of the top k.
Result<Contenders> SarimaxContenders(const PipelineOptions& options,
                                     Technique family, const Split& s,
                                     PipelineReport* report) {
  // Primary season: strongest detected, falling back to the conventional
  // period for the frequency.
  std::size_t season = s.period;
  if (!report->seasons.empty()) season = report->seasons.front().period;
  if (season < 2) season = 24;

  // Shocks -> exogenous pulse columns (SARIMAX+FFT+Exog family only), and
  // transient cleanup when requested (the crash rule in data form).
  std::vector<DetectedShock> shocks;
  std::vector<std::size_t> transients;
  std::size_t n_transients = 0;
  if (family == Technique::kSarimaxFftExog || options.remove_transients) {
    ShockDetector::Options sd_opts = options.shock;
    sd_opts.period = season;
    auto detected = ShockDetector(sd_opts).Detect(s.train, &transients);
    if (detected.ok()) {
      if (family == Technique::kSarimaxFftExog) shocks = *detected;
      n_transients = transients.size();
    }
  }
  if (!options.remove_transients) transients.clear();
  // The training window is the prefix of the full window, so transient
  // indices carry over to the refit directly.
  std::vector<double> cleaned_train;
  if (!transients.empty()) {
    cleaned_train = ShockDetector::RemoveTransients(s.train, transients);
  }
  const std::vector<double>& train_values =
      transients.empty() ? s.train : cleaned_train;
  const std::vector<std::vector<double>> exog_train =
      ShockDetector::PulseColumns(shocks, 0, s.train.size());
  const std::vector<std::vector<double>> exog_test =
      ShockDetector::PulseColumns(shocks, s.train.size(), s.test.size());

  // Candidate grid.
  CandidateGenerator::Options gen_opts;
  gen_opts.max_lag = options.max_lag;
  gen_opts.season = season;
  gen_opts.n_shock_columns = shocks.size();
  gen_opts.fourier_periods.clear();
  if (family == Technique::kSarimaxFftExog && report->multiple_seasonality) {
    // Fourier terms when multiple seasonality is detected (paper §4.4).
    // The primary season is included too: combined with the D=0 corner of
    // the grid this gives the deterministic-seasonality + ARMA-errors
    // models that the paper's winning "SARIMAX with FFT and Exogenous"
    // family relies on.
    for (const auto& detected : report->seasons) {
      gen_opts.fourier_periods.push_back(
          static_cast<double>(detected.period));
    }
  }
  CandidateGenerator generator(gen_opts);
  std::vector<ModelCandidate> candidates;
  if (options.prune_with_correlogram) {
    const std::size_t max_lag = std::min<std::size_t>(
        static_cast<std::size_t>(options.max_lag), s.train.size() / 3);
    auto pacf = tsa::Pacf(train_values, max_lag);
    if (pacf.ok()) {
      candidates = generator.GeneratePruned(
          family, tsa::SignificantLags(*pacf, s.train.size()));
    }
  }
  if (candidates.empty()) candidates = generator.Generate(family);

  // Parallel evaluation.
  ModelSelector::Options sel_opts;
  sel_opts.n_threads = options.n_threads;
  sel_opts.keep_top = std::max<std::size_t>(options.ensemble_top_k, 5);
  sel_opts.hint = options.selector_hint;
  sel_opts.time_budget_seconds = options.fit_time_budget_seconds;
  sel_opts.fourier_cache = options.fourier_cache;
  CAPPLAN_ASSIGN_OR_RETURN(
      SelectionResult sel,
      ModelSelector(sel_opts).Select(train_values, s.test, candidates,
                                     exog_train, exog_test));

  const ModelCandidate& win = sel.best.candidate;
  const std::size_t ensemble_k =
      std::min(options.ensemble_top_k, sel.top.size());
  std::string spec = win.spec.ToString();
  if (!win.fourier.empty()) spec += "+FFT";
  if (win.n_exog > 0) spec += "+exog(" + std::to_string(win.n_exog) + ")";
  // The refitted members: the winner alone, or the top k weighted by
  // inverse test RMSE.
  std::vector<std::pair<ModelCandidate, double>> members;
  if (ensemble_k > 1) {
    spec = "ensemble(top-" + std::to_string(ensemble_k) + ", best " + spec +
           ")";
    for (std::size_t i = 0; i < ensemble_k; ++i) {
      members.emplace_back(sel.top[i].candidate,
                           1.0 / (sel.top[i].accuracy.rmse + 1e-12));
    }
  } else {
    members.emplace_back(win, 1.0);
  }
  report->selector_profile = sel.profile;
  report->shocks = shocks;
  report->transient_spikes_discarded = n_transients;

  // Refits each member on the full window and forecasts the horizon,
  // projecting exogenous pulses forward. The first successful refit (the
  // winner, or the best ensemble member) also records its converged
  // coefficients for warm-starting future fits.
  ForecastFn refit = [members = std::move(members), shocks = std::move(shocks),
                      transients = std::move(transients),
                      fourier_cache = options.fourier_cache, report](
                         const std::vector<double>& history,
                         std::size_t horizon) -> Result<models::Forecast> {
    std::vector<double> cleaned;
    if (!transients.empty()) {
      cleaned = ShockDetector::RemoveTransients(history, transients);
    }
    const std::vector<double>& y = transients.empty() ? history : cleaned;
    auto note_coefficients = [&](const std::vector<double>& ar,
                                 const std::vector<double>& ma) {
      if (report->chosen_ar.empty() && report->chosen_ma.empty()) {
        report->chosen_ar = ar;
        report->chosen_ma = ma;
      }
    };
    auto refit_member =
        [&](const ModelCandidate& cand) -> Result<models::Forecast> {
      if (cand.n_exog == 0 && cand.fourier.empty()) {
        CAPPLAN_ASSIGN_OR_RETURN(models::ArimaModel model,
                                 models::ArimaModel::Fit(y, cand.spec));
        note_coefficients(model.ar_coefficients(), model.ma_coefficients());
        return model.Predict(horizon, kIntervalLevel);
      }
      std::vector<std::vector<double>> exog_full =
          ShockDetector::PulseColumns(shocks, 0, y.size());
      std::vector<std::vector<double>> exog_future =
          ShockDetector::PulseColumns(shocks, y.size(), horizon);
      exog_full.resize(std::min<std::size_t>(cand.n_exog, exog_full.size()));
      exog_future.resize(
          std::min<std::size_t>(cand.n_exog, exog_future.size()));
      CAPPLAN_ASSIGN_OR_RETURN(
          models::SarimaxModel model,
          models::SarimaxModel::Fit(y, cand.spec, exog_full, cand.fourier, {},
                                    fourier_cache));
      note_coefficients(model.error_model().ar_coefficients(),
                        model.error_model().ma_coefficients());
      return model.Predict(horizon, exog_future, kIntervalLevel);
    };
    if (members.size() == 1) return refit_member(members.front().first);
    std::vector<models::Forecast> member_fcs;
    std::vector<double> weights;
    for (const auto& [cand, weight] : members) {
      auto member = refit_member(cand);
      if (!member.ok()) continue;
      member_fcs.push_back(std::move(*member));
      weights.push_back(weight);
    }
    std::vector<const models::Forecast*> ptrs;
    ptrs.reserve(member_fcs.size());
    for (const auto& f : member_fcs) ptrs.push_back(&f);
    return CombineForecasts(ptrs, std::move(weights));
  };

  Contenders out;
  out.list.push_back({std::move(spec), std::move(refit), sel.best.accuracy});
  out.evaluated = sel.evaluated;
  out.succeeded = sel.succeeded;
  out.pruned = sel.pruned;
  return out;
}

constexpr Family kHesFamily{"HES branch", "pipeline.hes", "pipeline.hes",
                            &HesContenders};
constexpr Family kSarimaxFamily{"SARIMAX branch", "pipeline.sarimax", nullptr,
                                &SarimaxContenders};
constexpr Family kTbatsFamily{"TBATS branch", nullptr, "pipeline.tbats",
                              &TbatsContenders};
constexpr Family kBaselineFamily{"baseline", "pipeline.baseline", nullptr,
                                 &BaselineContenders};
constexpr Family kSesRung{"SES rung", "pipeline.ses", "pipeline.ses",
                          &SesContenders};

const Family& FamilyOf(Technique technique) {
  switch (technique) {
    case Technique::kHes:
      return kHesFamily;
    case Technique::kTbats:
      return kTbatsFamily;
    case Technique::kBaseline:
      return kBaselineFamily;
    default:
      return kSarimaxFamily;
  }
}

// Every rung must end in numbers a capacity planner can chart.
bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// The one selection body: scores every contender of `family` on the split,
// keeps the first with the lowest test RMSE, refits it on the full window
// and fills the selection fields of `report` (as `technique`). Returns the
// winner's test RMSE.
Result<double> RunFamily(const Family& family, Technique technique,
                         const PipelineOptions& options, const Split& s,
                         PipelineReport* report) {
  std::optional<obs::TraceSpan> span;
  if (family.span != nullptr) span.emplace(family.span, "pipeline");
  if (family.fault_site != nullptr) {
    CAPPLAN_RETURN_NOT_OK(FaultHit(family.fault_site));
  }
  CAPPLAN_ASSIGN_OR_RETURN(Contenders contenders,
                           family.contenders(options, technique, s, report));
  auto score = [&](const Contender& c) -> Result<tsa::AccuracyReport> {
    if (c.scored) return *c.scored;
    if (s.test.empty()) return tsa::AccuracyReport{};
    CAPPLAN_ASSIGN_OR_RETURN(models::Forecast fc,
                             c.forecast(s.train, s.test.size()));
    return tsa::MeasureAccuracy(s.test, fc.mean);
  };
  const Contender* best = nullptr;
  tsa::AccuracyReport best_acc;
  double best_rmse = std::numeric_limits<double>::infinity();
  for (const Contender& c : contenders.list) {
    Result<tsa::AccuracyReport> acc = score(c);
    if (acc.ok() && acc->rmse < best_rmse) {
      best_rmse = acc->rmse;
      best = &c;
      best_acc = *acc;
    }
  }
  if (best == nullptr) {
    return Status::ComputeError(std::string(family.name) +
                                ": no variant fitted");
  }
  CAPPLAN_ASSIGN_OR_RETURN(models::Forecast fc,
                           best->forecast(s.full, s.horizon));
  if (!AllFinite(fc.mean)) {
    return Status::ComputeError(std::string(family.name) +
                                ": non-finite forecast");
  }
  report->chosen_family = technique;
  report->chosen_spec = best->spec;
  report->test_accuracy = best_acc;
  report->candidates_evaluated += contenders.evaluated;
  report->candidates_succeeded += contenders.succeeded;
  report->candidates_pruned += contenders.pruned;
  report->forecast = std::move(fc);
  return best_rmse;
}

}  // namespace

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "full";
    case DegradationLevel::kHesOnly:
      return "hes";
    case DegradationLevel::kSes:
      return "ses";
    case DegradationLevel::kBaseline:
      return "baseline";
  }
  return "?";
}

repo::StoredModel ToStoredModel(const PipelineReport& report, std::string key,
                                std::int64_t fitted_at_epoch) {
  repo::StoredModel stored;
  stored.key = std::move(key);
  stored.technique = TechniqueName(report.chosen_family);
  stored.spec = report.chosen_spec;
  stored.test_rmse = report.test_accuracy.rmse;
  stored.test_mape = report.test_accuracy.mape;
  stored.fitted_at_epoch = fitted_at_epoch;
  stored.ar_coef = report.chosen_ar;
  stored.ma_coef = report.chosen_ma;
  for (const auto& s : report.seasons) {
    stored.periods.push_back(static_cast<double>(s.period));
  }
  return stored;
}

Result<PipelineReport> Pipeline::Run(const tsa::TimeSeries& series) const {
  obs::TraceSpan span("pipeline.run", "pipeline");
  Result<PipelineReport> full = RunSelection(series);
  if (full.ok() || !options_.degrade_on_failure) return full;
  span.set_tag("degraded");
  return RunDegraded(series, full.status());
}

Result<PipelineReport> Pipeline::RunSelection(
    const tsa::TimeSeries& series) const {
  CAPPLAN_RETURN_NOT_OK(FaultHit("pipeline.run"));
  PipelineReport report;
  report.series_name = series.name();

  // Stage 1: gap fill.
  report.gaps_filled = series.CountMissing();
  CAPPLAN_ASSIGN_OR_RETURN(tsa::TimeSeries filled,
                           tsa::LinearInterpolate(series));

  // Stage 2: split per Table 1.
  CAPPLAN_ASSIGN_OR_RETURN(report.split, SplitFor(filled.frequency()));
  if (options_.horizon_override > 0) {
    report.split.prediction = options_.horizon_override;
  }
  CAPPLAN_ASSIGN_OR_RETURN(auto split_pair, ApplySplit(filled));
  const tsa::TimeSeries& train = split_pair.first;
  const tsa::TimeSeries& test = split_pair.second;
  // The full policy window (train + test), used for the final refit.
  const std::size_t window_begin = filled.size() - report.split.observations;
  CAPPLAN_ASSIGN_OR_RETURN(
      tsa::TimeSeries full,
      filled.Slice(window_begin, report.split.observations));

  // Stage 3: understand the data.
  const std::size_t default_period =
      tsa::DefaultSeasonalPeriod(filled.frequency());
  if (default_period >= 2 && train.size() >= 2 * default_period) {
    auto traits = tsa::MeasureTraits(train.values(), default_period);
    if (traits.ok()) report.traits = *traits;
  }
  // Seasonality routing: FFT period detection feeding both the SARIMAX
  // Fourier candidates and the TBATS lattice branch. A detection failure
  // degrades to the single-season path here, not to the ladder.
  lattice::RouterOptions router_opts = options_.router;
  router_opts.metrics = options_.metrics;
  const lattice::RoutingDecision routing =
      lattice::PeriodRouter(router_opts).Route(train.values());
  report.seasons = routing.seasons;
  report.multiple_seasonality = routing.multiple_seasonality;
  report.period_detection_fallback = routing.detection_failed;
  auto rec_d = tsa::RecommendDifferencing(train.values());
  if (rec_d.ok()) report.recommended_d = *rec_d;

  // Stage 4: every family the technique names competes on the split; the
  // first best test RMSE wins.
  std::vector<Technique> families = {options_.technique};
  if (options_.technique == Technique::kAuto) {
    families = {Technique::kHes, Technique::kSarimaxFftExog};
    // Multi-seasonal series additionally compete through the TBATS
    // lattice (paper Section 4.3/4.4 routing).
    if (report.multiple_seasonality) families.push_back(Technique::kTbats);
  }
  const Split split{train.values(), test.values(), full.values(),
                    default_period, report.split.prediction};
  double best_rmse = std::numeric_limits<double>::infinity();
  PipelineReport best_report;
  Status last_error = Status::OK();
  for (Technique family : families) {
    PipelineReport attempt = report;
    Result<double> rmse =
        RunFamily(FamilyOf(family), family, options_, split, &attempt);
    if (!rmse.ok()) {
      last_error = rmse.status();
    } else if (*rmse < best_rmse) {
      best_rmse = *rmse;
      best_report = std::move(attempt);
    }
  }
  if (!std::isfinite(best_rmse)) {
    if (!last_error.ok()) return last_error;
    return Status::ComputeError("Pipeline: no model could be fitted");
  }
  best_report.forecast_start_epoch = full.EndEpoch();
  if (options_.metrics != nullptr &&
      best_report.chosen_family == Technique::kTbats) {
    options_.metrics
        ->GetCounter("capplan_select_tbats_selected_total", {},
                     "Selections won by the TBATS lattice branch")
        .Inc();
  }

  // Stage 5: record in the central model repository.
  if (options_.model_repository != nullptr) {
    options_.model_repository->Put(
        ToStoredModel(best_report, series.name(), full.EndEpoch()));
  }
  return best_report;
}

Result<PipelineReport> Pipeline::RunDegraded(const tsa::TimeSeries& series,
                                             const Status& cause) const {
  // Rung 1: the exponential-smoothing family through the normal split
  // machinery — still a real model selection, just off the SARIMAX grid.
  if (options_.technique != Technique::kHes) {
    PipelineOptions hes_opts = options_;
    hes_opts.technique = Technique::kHes;
    hes_opts.degrade_on_failure = false;
    Result<PipelineReport> r = Pipeline(hes_opts).RunSelection(series);
    if (r.ok()) {
      r->degradation = DegradationLevel::kHesOnly;
      r->degradation_reason = cause.ToString();
      return r;
    }
  }

  // Splitless rungs: they must work on series the Table-1 policy rejects,
  // so prepare the data by hand.
  Result<tsa::TimeSeries> filled_r = tsa::LinearInterpolate(series);
  if (!filled_r.ok()) {
    return Status::ComputeError(
        "Pipeline: degradation ladder exhausted — no finite data (cause: " +
        cause.ToString() + ")");
  }
  const tsa::TimeSeries& filled = *filled_r;
  const std::size_t n = filled.size();
  const std::size_t period = tsa::DefaultSeasonalPeriod(filled.frequency());

  PipelineReport base;
  base.series_name = series.name();
  if (auto p = SplitFor(filled.frequency()); p.ok()) base.split = *p;
  if (options_.horizon_override > 0) {
    base.split.prediction = options_.horizon_override;
  }
  if (base.split.prediction == 0) {
    base.split.prediction = std::max<std::size_t>(period, 1);
  }
  const std::size_t horizon = base.split.prediction;
  base.gaps_filled = series.CountMissing();
  base.forecast_start_epoch = filled.EndEpoch();
  base.degradation_reason = cause.ToString();

  // Score degraded fits on a small recent holdout when the series affords
  // one; otherwise the accuracy report is honestly empty.
  const std::size_t holdout =
      n >= 3 * horizon ? horizon : (n >= 16 ? n / 4 : 0);
  const std::vector<double>& y = filled.values();
  const std::vector<double> head(y.begin(), y.end() - holdout);
  const std::vector<double> tail(y.end() - holdout, y.end());
  const Split split{head, tail, y, period, horizon};

  // Rung 2: a direct SES fit. Rung 3: the seasonal-naive / naive floor.
  for (const auto& [family, technique, level] :
       {std::tuple{&kSesRung, Technique::kHes, DegradationLevel::kSes},
        std::tuple{&kBaselineFamily, Technique::kBaseline,
                   DegradationLevel::kBaseline}}) {
    PipelineReport r = base;
    r.degradation = level;
    if (RunFamily(*family, technique, options_, split, &r).ok()) return r;
  }
  return Status::ComputeError(
      "Pipeline: degradation ladder exhausted (cause: " + cause.ToString() +
      ")");
}

}  // namespace capplan::core
