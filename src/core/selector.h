#ifndef CAPPLAN_CORE_SELECTOR_H_
#define CAPPLAN_CORE_SELECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/candidate_gen.h"
#include "models/model.h"
#include "tsa/metrics.h"

namespace capplan::core {

// Outcome of evaluating one candidate on the held-out test window.
struct EvaluatedCandidate {
  ModelCandidate candidate;
  bool ok = false;
  // Fast path only: the candidate fitted, but its running test squared-error
  // sum provably exceeded the current top-k bound, so scoring stopped early.
  // Pruned candidates are never ok and never appear in `top`.
  bool pruned = false;
  // The selection deadline expired before this candidate was attempted; it
  // was skipped without fitting (never ok, never in `top`).
  bool deadline_skipped = false;
  std::string error;             // set when !ok
  tsa::AccuracyReport accuracy;  // test-window accuracy
  double aic = 0.0;
  models::Forecast test_forecast;
};

// Where one grid selection spent its effort: per-stage wall time plus
// candidate outcome counts. Surfaced through SelectionResult ->
// PipelineReport so operators can see prune/warm-start effectiveness per
// refit instead of only in offline ablations.
struct SelectorProfile {
  std::size_t candidates = 0;        // grid size handed to Select()
  std::size_t succeeded = 0;         // fitted and fully scored
  std::size_t pruned = 0;            // cut off by the early-abort bound
  std::size_t failed = 0;            // fit or scoring errors
  std::size_t deadline_skipped = 0;  // never attempted: budget ran out
  std::size_t warm_hits = 0;         // fits seeded from a prior fit or hint
  std::size_t transform_groups = 0;  // shared-transform (exog, fourier) groups
  std::size_t rescored = 0;          // survivors re-scored by the oracle
  double prepare_ms = 0.0;           // grouping + shared transform builds
  double grid_ms = 0.0;              // parallel candidate evaluation
  double rescore_ms = 0.0;           // cold oracle re-score of survivors
  double total_ms = 0.0;             // the whole Select() call
};

// Result of a full grid selection.
struct SelectionResult {
  EvaluatedCandidate best;                 // lowest test RMSE
  std::size_t evaluated = 0;               // candidates attempted
  std::size_t succeeded = 0;               // candidates that fitted + scored
  std::size_t pruned = 0;                  // cut off by the early-abort bound
  std::size_t deadline_skipped = 0;        // never attempted: budget ran out
  bool deadline_hit = false;               // the time budget expired mid-grid
  std::vector<EvaluatedCandidate> top;     // best few, RMSE ascending
  SelectorProfile profile;                 // where the grid time went
};

// Default evaluation parallelism: the hardware concurrency, clamped to
// [1, 32] (hardware_concurrency() may report 0 when unknown).
std::size_t DefaultThreadCount();

// Evaluates candidate grids in parallel and picks the best test-RMSE model:
// "each model is then computed to obtain an RMSE. The model with the best
// RMSE is the most accurate" (paper Section 5.1); parallel processing per
// Section 9.
//
// Two evaluation paths share the public interface:
//   * Oracle path (all three fast-path flags false): every candidate is
//     evaluated independently by the static Evaluate(), exactly as a serial
//     loop would. This is the correctness reference.
//   * Fast path (default): shared-transform caching, warm-started
//     refinement, and early-abort pruning (see Options). The final
//     keep_top survivors are re-scored with the un-cached, un-warmed
//     Evaluate(), so the selected model and its reported accuracy are
//     identical to the oracle path whenever the oracle's top keep_top
//     candidates land inside the fast path's slightly wider rescoring pool
//     — which holds unless two models' test RMSEs differ by less than the
//     warm-start perturbation (~1e-6, far below real inter-model gaps).
class ModelSelector {
 public:
  // Converged coefficients from a previous fit over the same (or a slightly
  // grown) training window — e.g. the stored model an EstateService refit
  // starts from. Chains whose (d, D, season) match `spec` seed their first
  // fit from these vectors (dense, index i -> lag i+1).
  struct WarmHint {
    models::ArimaSpec spec;
    std::vector<double> ar;
    std::vector<double> ma;
  };

  struct Options {
    std::size_t n_threads = DefaultThreadCount();
    std::size_t keep_top = 5;
    // Layer 1: compute each distinct differencing/demeaning transform and
    // Hannan-Rissanen long-autoregression once per grid (ArimaFitCache),
    // and the OLS stage once per (exog, fourier) group (FitWithSharedOls).
    // Bitwise-identical to the uncached path.
    bool shared_transforms = true;
    // Layer 2: seed each candidate's simplex refinement from the converged
    // coefficients of the previously fitted candidate in its warm chain
    // (same spec except p, walked in input order). Chains are split into
    // fixed-length segments so results do not depend on thread count.
    bool warm_start = true;
    // Layer 3: stop scoring a candidate as soon as its running test-window
    // squared-error sum provably exceeds the current top-k bound; pruned
    // candidates skip the psi-weight interval expansion entirely.
    bool early_abort = true;
    // Optional cross-run warm start applied at the head of matching chains;
    // ignored when both coefficient vectors are empty.
    WarmHint hint;
    // Cooperative wall-clock budget for the whole grid (0 = unlimited).
    // Checked between candidates, never mid-fit: once the budget expires,
    // remaining candidates are skipped (deadline_skipped) and the ones
    // already scored compete as usual. An expired budget with zero scored
    // candidates fails the selection like any empty grid.
    double time_budget_seconds = 0.0;
    // Cross-series shared transform for batched refits: when set, the
    // Fourier design columns of every shared-OLS group are taken from (and
    // inserted into) this cache instead of being recomputed per selection.
    // The columns depend only on (specs, window length), so every series of
    // a batch with the same window reuses them. Selection is bitwise
    // identical either way. Not owned; must outlive the Select call.
    tsa::FourierTermCache* fourier_cache = nullptr;
  };

  ModelSelector() : ModelSelector(Options()) {}
  explicit ModelSelector(Options options) : options_(options) {}

  // Fits every candidate on `train`, forecasts test.size() steps and scores
  // against `test`. `exog_train` are the available shock pulse columns over
  // the training window and `exog_test` their continuation over the test
  // window; candidates use the first candidate.n_exog of them.
  Result<SelectionResult> Select(
      const std::vector<double>& train, const std::vector<double>& test,
      const std::vector<ModelCandidate>& candidates,
      const std::vector<std::vector<double>>& exog_train = {},
      const std::vector<std::vector<double>>& exog_test = {}) const;

  // Evaluates one candidate with no cache, warm start, or pruning — the
  // oracle the fast path's winners are re-scored against (also exposed for
  // tests and ablations).
  static EvaluatedCandidate Evaluate(
      const ModelCandidate& candidate, const std::vector<double>& train,
      const std::vector<double>& test,
      const std::vector<std::vector<double>>& exog_train,
      const std::vector<std::vector<double>>& exog_test);

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace capplan::core

#endif  // CAPPLAN_CORE_SELECTOR_H_
