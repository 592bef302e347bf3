#ifndef CAPPLAN_MODELS_TBATS_H_
#define CAPPLAN_MODELS_TBATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "models/model.h"

namespace capplan::models {

// TBATS (Trigonometric seasonality, Box-Cox, ARMA errors, Trend, Seasonal
// components) — paper Section 4.3, Eq. 7-14, after De Livera, Hyndman &
// Snyder (2011).
//
// Linear innovations state space with states: level l_t, damped trend b_t,
// k_i trigonometric harmonic pairs per seasonal period m_i, and an ARMA(p,q)
// residual process d_t. All recursions run on the Box-Cox transformed
// series. The final configuration (Box-Cox on/off, trend on/off, damping
// on/off, ARMA errors on/off, harmonic counts) is chosen by AIC over the
// option lattice, exactly as the paper describes.

// One seasonal period with its harmonic count.
struct TbatsSeason {
  double period = 0.0;    // m_i, in observations (need not be integer)
  std::size_t harmonics = 1;  // k_i
};

// A fully specified TBATS configuration.
struct TbatsConfig {
  bool use_boxcox = false;
  bool use_trend = true;
  bool use_damping = false;
  int arma_p = 0;
  int arma_q = 0;
  std::vector<TbatsSeason> seasons;

  std::string ToString() const;
  std::size_t NumParams() const;
};

class TbatsModel {
 public:
  struct Options {
    // Option-lattice switches for core/lattice/TbatsLattice, which selects
    // the AIC-best configuration: each "try" flag allows both settings.
    bool try_boxcox = true;
    bool try_trend = true;
    bool try_damping = true;
    bool try_arma = true;      // considers ARMA in {(0,0),(1,0),(0,1),(1,1)}
    std::size_t max_harmonics = 5;
    int max_fit_iterations = 600;
  };

  // Fits a single fully-specified configuration.
  static Result<TbatsModel> FitConfig(const std::vector<double>& y,
                                      const TbatsConfig& config,
                                      int max_iterations = 600);

  Result<Forecast> Predict(std::size_t horizon, double level = 0.95) const;

  // Monotone process-wide count of innovations-filter passes (one per
  // objective evaluation inside a fit). The TBATS lattice bench gates its
  // pruning claim on this: read before/after and difference. Relaxed atomic;
  // never reset.
  static std::uint64_t TotalFilterRuns();

  const TbatsConfig& config() const { return config_; }
  const FitSummary& summary() const { return summary_; }
  double box_cox_lambda() const { return lambda_; }
  const std::vector<double>& residuals() const { return residuals_; }

 private:
  TbatsModel() = default;

  // Flat state vector layout: [level, trend?, {s_j, s*_j}xK per season,
  // d_{t-1..p}, e_{t-1..q}].
  struct StateLayout {
    bool has_trend = false;
    std::vector<std::size_t> season_offsets;  // offset of each season block
    std::vector<std::size_t> season_harmonics;
    std::vector<double> season_periods;
    std::size_t arma_d_offset = 0;  // start of d history block
    std::size_t arma_e_offset = 0;
    int p = 0, q = 0;
    std::size_t size = 0;
  };

  static StateLayout MakeLayout(const TbatsConfig& config);

  // One recursion step: given state and parameters, produce the one-step
  // prediction, then update the state with innovation e.
  struct Params {
    double alpha = 0.1;
    double beta = 0.01;
    double phi = 1.0;  // damping
    std::vector<double> gamma1, gamma2;  // per season
    std::vector<double> arma_phi, arma_theta;
  };

  static double PredictOneStep(const StateLayout& layout, const Params& params,
                               const std::vector<double>& state);
  static void UpdateState(const StateLayout& layout, const Params& params,
                          std::vector<double>* state, double innovation);

  // Runs the filter over z; returns SSE (skipping warmup) or +inf on
  // divergence. Optionally captures the final state and residuals.
  static double RunFilter(const std::vector<double>& z,
                          const StateLayout& layout, const Params& params,
                          std::size_t warmup, std::vector<double>* final_state,
                          std::vector<double>* residuals);

  TbatsConfig config_;
  StateLayout layout_;
  Params params_;
  double lambda_ = 1.0;  // Box-Cox lambda (1 = identity when disabled)
  std::vector<double> final_state_;
  std::vector<double> residuals_;
  std::size_t warmup_ = 0;
  FitSummary summary_;
};

}  // namespace capplan::models

#endif  // CAPPLAN_MODELS_TBATS_H_
