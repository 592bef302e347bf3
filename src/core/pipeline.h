#ifndef CAPPLAN_CORE_PIPELINE_H_
#define CAPPLAN_CORE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/candidate_gen.h"
#include "core/lattice/period_router.h"
#include "core/lattice/tbats_lattice.h"
#include "core/selector.h"
#include "core/shock_detect.h"
#include "core/split.h"
#include "models/model.h"
#include "repo/model_store.h"
#include "tsa/decompose.h"
#include "tsa/seasonality.h"
#include "tsa/timeseries.h"

namespace capplan::core {

// End-to-end forecast pipeline implementing the paper's Figure 4 workflow:
//
//   gather data -> fill gaps (linear interpolation) -> train/test split
//   (Table 1) -> every family the technique names competes:
//     HES:      the exponential-smoothing variants, plus DSHW on hourly data
//     SARIMAX:  analyse ACF/PACF -> detect seasonality, multiple seasonality
//               and shocks -> generate the candidate grid (optionally pruned
//               by the correlogram) -> evaluate in parallel
//     TBATS:    the AIC-pruned option lattice over the routed seasons
//     baseline: seasonal-naive / naive
//   -> the first best test RMSE wins -> refit the winner on the full window
//   -> forecast the Table-1 horizon -> record the model in the central
//   repository (one-week staleness).

// How far down the degradation ladder a forecast came from. When the
// configured selection fails (grid error, fit timeout, too little clean
// data) and degrade_on_failure is set, the pipeline walks down one rung at a
// time until something produces a finite forecast — a degraded estate still
// needs *a* capacity number for every instance, and a seasonal-naive
// projection labelled as such beats a silent hole in the plan.
enum class DegradationLevel {
  kFull = 0,      // the configured technique selection succeeded
  kHesOnly = 1,   // fell back to the exponential-smoothing family
  kSes = 2,       // direct SES fit, no Table-1 split required
  kBaseline = 3,  // seasonal-naive / naive floor
};

const char* DegradationLevelName(DegradationLevel level);

struct PipelineOptions {
  // Which branch to run. kAuto evaluates both the HES family and the
  // SARIMAX families and returns the overall best.
  Technique technique = Technique::kAuto;

  // Prune AR lag candidates with the PACF correlogram (paper Section 6.3's
  // tuning step). Exhaustive grids reproduce the full §6.3 counts.
  bool prune_with_correlogram = true;

  // Grid breadth: AR lags range over 1..max_lag (30 in the paper).
  int max_lag = 30;

  std::size_t n_threads = DefaultThreadCount();

  // Optional warm-start hint forwarded to the selector — typically the
  // stored coefficients of the previous fit of the same series (see
  // ModelSelector::WarmHint; ignored when empty).
  ModelSelector::WarmHint selector_hint;

  // When > 0, replaces the Table-1 prediction horizon (in observations at
  // the series frequency). The service layer uses this to make one fit's
  // cached forecast span a whole staleness period between refits.
  std::size_t horizon_override = 0;

  // When > 1, the SARIMAX-family forecast is an inverse-RMSE-weighted
  // combination of the top-k selected models (refitted on the full window)
  // instead of the single winner — more robust to the single test split.
  std::size_t ensemble_top_k = 1;

  // Replace non-recurring transient spikes (crash rule) with interpolated
  // values before fitting.
  bool remove_transients = false;

  // Shock handling (the paper's ">3 occurrences is a behaviour" rule).
  ShockDetector::Options shock;

  // Walk the degradation ladder instead of failing when the configured
  // selection cannot produce a forecast. The ladder itself can still fail —
  // only a series with no finite observation defeats every rung.
  bool degrade_on_failure = false;

  // Cooperative wall-clock budget for the SARIMAX grid selection, forwarded
  // to ModelSelector::Options::time_budget_seconds (0 = unlimited). When the
  // budget expires mid-grid the candidates evaluated so far still compete;
  // an empty result degrades like any other selection failure.
  double fit_time_budget_seconds = 0.0;

  // Multi-seasonality selection subsystem (docs/selection.md): FFT period
  // routing plus the TBATS option lattice. `router` configures detection;
  // `tbats_lattice` configures the AIC-pruned lattice behind kTbats (its
  // n_threads/metrics fields are overridden from this struct's).
  lattice::RouterOptions router;
  lattice::TbatsLatticeOptions tbats_lattice;

  // Optional metrics sink for the capplan_select_* family; may be null.
  // Not owned; must outlive every Run call.
  obs::MetricsRegistry* metrics = nullptr;

  // Optional central model registry; when set, the chosen model is recorded
  // under the series name with the fit timestamp.
  repo::ModelRepository* model_repository = nullptr;

  // Cross-series shared-transform cache for batched refits (see
  // core::RefitBatchSession): memoizes the Fourier design columns across
  // every selection and final refit that runs with these options. Results
  // are bitwise-identical with or without it. Not owned; must outlive every
  // Run call.
  tsa::FourierTermCache* fourier_cache = nullptr;
};

struct PipelineReport {
  std::string series_name;
  SplitPolicy split;

  // Data understanding stage.
  std::size_t gaps_filled = 0;
  tsa::SeriesTraits traits;
  std::vector<tsa::DetectedSeason> seasons;
  bool multiple_seasonality = false;
  // Period detection degraded to the single-season path (selector.periods
  // fault or a detection error); selection proceeded without routing.
  bool period_detection_fallback = false;
  std::vector<DetectedShock> shocks;
  std::size_t transient_spikes_discarded = 0;
  int recommended_d = 0;

  // Selection stage.
  Technique chosen_family = Technique::kArima;
  std::string chosen_spec;
  tsa::AccuracyReport test_accuracy;
  std::size_t candidates_evaluated = 0;
  std::size_t candidates_succeeded = 0;
  std::size_t candidates_pruned = 0;  // cut off by the early-abort bound

  // Stage timings and fast-path effectiveness of the SARIMAX grid selection
  // (all-zero when no grid ran, e.g. a pure HES win or a degraded rung).
  SelectorProfile selector_profile;

  // TBATS lattice counters when the TBATS branch ran (all-zero otherwise).
  lattice::LatticeProfile tbats_profile;

  // Dense converged coefficients of the winning (S)ARIMA(X) error model,
  // refitted on the full window (index i -> lag i+1). Persisted with the
  // stored model so the next refit of this series can warm-start its grid.
  std::vector<double> chosen_ar;
  std::vector<double> chosen_ma;

  // Forecast of the Table-1 prediction horizon, made from the full window.
  models::Forecast forecast;
  std::int64_t forecast_start_epoch = 0;

  // Which ladder rung produced the forecast (kFull unless
  // degrade_on_failure kicked in) and, when degraded, why the full
  // selection was abandoned.
  DegradationLevel degradation = DegradationLevel::kFull;
  std::string degradation_reason;
};

// The registry record of a finished selection of series `key`: technique,
// spec, held-out accuracy, the winner's coefficients (the next refit's
// warm-start hint) and the detected periods.
repo::StoredModel ToStoredModel(const PipelineReport& report, std::string key,
                                std::int64_t fitted_at_epoch);

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {}) : options_(options) {}

  // Runs the full workflow on an hourly/daily/weekly series.
  Result<PipelineReport> Run(const tsa::TimeSeries& series) const;

  const PipelineOptions& options() const { return options_; }

 private:
  // The configured selection (the pre-ladder Run body): interpolate, split,
  // understand, select, refit, record.
  Result<PipelineReport> RunSelection(const tsa::TimeSeries& series) const;

  // Walks rungs kHesOnly -> kSes -> kBaseline after RunSelection failed
  // with `cause`. Fails only when no rung can produce a finite forecast.
  Result<PipelineReport> RunDegraded(const tsa::TimeSeries& series,
                                     const Status& cause) const;

  PipelineOptions options_;
};

}  // namespace capplan::core

#endif  // CAPPLAN_CORE_PIPELINE_H_
