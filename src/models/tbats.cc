#include "models/tbats.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>

#include "math/distributions.h"
#include "math/optimize.h"
#include "math/vec.h"
#include "tsa/boxcox.h"
#include "tsa/metrics.h"

namespace capplan::models {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kInf = std::numeric_limits<double>::infinity();
std::atomic<std::uint64_t> g_filter_runs{0};
}  // namespace

std::uint64_t TbatsModel::TotalFilterRuns() {
  return g_filter_runs.load(std::memory_order_relaxed);
}

std::string TbatsConfig::ToString() const {
  std::ostringstream os;
  os << "TBATS(boxcox=" << (use_boxcox ? "y" : "n")
     << ",trend=" << (use_trend ? "y" : "n")
     << ",damped=" << (use_damping ? "y" : "n") << ",arma=(" << arma_p << ","
     << arma_q << "),seasons={";
  for (std::size_t i = 0; i < seasons.size(); ++i) {
    if (i) os << ",";
    os << seasons[i].period << ":" << seasons[i].harmonics;
  }
  os << "})";
  return os.str();
}

std::size_t TbatsConfig::NumParams() const {
  std::size_t k = 1;  // alpha
  if (use_trend) ++k;
  if (use_damping) ++k;
  k += 2 * seasons.size();  // gamma1, gamma2 per season
  k += static_cast<std::size_t>(arma_p + arma_q);
  if (use_boxcox) ++k;  // lambda
  return k;
}

TbatsModel::StateLayout TbatsModel::MakeLayout(const TbatsConfig& config) {
  StateLayout layout;
  layout.has_trend = config.use_trend;
  std::size_t off = 1 + (config.use_trend ? 1 : 0);
  for (const auto& s : config.seasons) {
    layout.season_offsets.push_back(off);
    layout.season_harmonics.push_back(s.harmonics);
    layout.season_periods.push_back(s.period);
    off += 2 * s.harmonics;  // s_j and s*_j interleaved
  }
  layout.p = config.arma_p;
  layout.q = config.arma_q;
  layout.arma_d_offset = off;
  off += static_cast<std::size_t>(config.arma_p);
  layout.arma_e_offset = off;
  off += static_cast<std::size_t>(config.arma_q);
  layout.size = off;
  return layout;
}

double TbatsModel::PredictOneStep(const StateLayout& layout,
                                  const Params& params,
                                  const std::vector<double>& state) {
  double yhat = state[0];  // level
  if (layout.has_trend) yhat += params.phi * state[1];
  for (std::size_t i = 0; i < layout.season_offsets.size(); ++i) {
    const std::size_t off = layout.season_offsets[i];
    const std::size_t k = layout.season_harmonics[i];
    for (std::size_t j = 0; j < k; ++j) {
      yhat += state[off + 2 * j];  // sum of s_j components
    }
  }
  // Expected ARMA residual part: d_hat = sum(phi_i d_{t-i}) + sum(th_j e_{t-j}).
  for (int i = 0; i < layout.p; ++i) {
    yhat += params.arma_phi[static_cast<std::size_t>(i)] *
            state[layout.arma_d_offset + static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < layout.q; ++j) {
    yhat += params.arma_theta[static_cast<std::size_t>(j)] *
            state[layout.arma_e_offset + static_cast<std::size_t>(j)];
  }
  return yhat;
}

void TbatsModel::UpdateState(const StateLayout& layout, const Params& params,
                             std::vector<double>* state, double innovation) {
  std::vector<double>& x = *state;
  const double e = innovation;
  // ARMA residual value realized this step.
  double d_t = e;
  for (int i = 0; i < layout.p; ++i) {
    d_t += params.arma_phi[static_cast<std::size_t>(i)] *
           x[layout.arma_d_offset + static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < layout.q; ++j) {
    d_t += params.arma_theta[static_cast<std::size_t>(j)] *
           x[layout.arma_e_offset + static_cast<std::size_t>(j)];
  }
  // Level and trend (error-correction form, paper Eq. 8-9 with d_t folded
  // into the innovation).
  const double base = x[0] + (layout.has_trend ? params.phi * x[1] : 0.0);
  x[0] = base + params.alpha * e;
  if (layout.has_trend) x[1] = params.phi * x[1] + params.beta * e;
  // Trigonometric seasonal rotation (paper Eq. 12-13).
  for (std::size_t i = 0; i < layout.season_offsets.size(); ++i) {
    const std::size_t off = layout.season_offsets[i];
    const std::size_t k = layout.season_harmonics[i];
    const double m = layout.season_periods[i];
    for (std::size_t j = 0; j < k; ++j) {
      const double lam =
          2.0 * kPi * static_cast<double>(j + 1) / m;
      const double c = std::cos(lam), s = std::sin(lam);
      const double sj = x[off + 2 * j];
      const double sj_star = x[off + 2 * j + 1];
      x[off + 2 * j] = sj * c + sj_star * s + params.gamma1[i] * e;
      x[off + 2 * j + 1] = -sj * s + sj_star * c + params.gamma2[i] * e;
    }
  }
  // Shift ARMA histories (newest first).
  for (int i = layout.p - 1; i > 0; --i) {
    x[layout.arma_d_offset + static_cast<std::size_t>(i)] =
        x[layout.arma_d_offset + static_cast<std::size_t>(i - 1)];
  }
  if (layout.p > 0) x[layout.arma_d_offset] = d_t;
  for (int j = layout.q - 1; j > 0; --j) {
    x[layout.arma_e_offset + static_cast<std::size_t>(j)] =
        x[layout.arma_e_offset + static_cast<std::size_t>(j - 1)];
  }
  if (layout.q > 0) x[layout.arma_e_offset] = e;
}

double TbatsModel::RunFilter(const std::vector<double>& z,
                             const StateLayout& layout, const Params& params,
                             std::size_t warmup,
                             std::vector<double>* final_state,
                             std::vector<double>* residuals) {
  g_filter_runs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = z.size();
  std::vector<double> state(layout.size, 0.0);
  // Heuristic initial level/trend.
  const std::size_t head = std::min<std::size_t>(n, 24);
  double mu = 0.0;
  for (std::size_t i = 0; i < head; ++i) mu += z[i];
  mu /= static_cast<double>(head);
  state[0] = mu;
  if (layout.has_trend && n > head) {
    state[1] = (z[n - 1] - z[0]) / static_cast<double>(n - 1);
  }
  if (residuals) residuals->assign(n, 0.0);
  double sse = 0.0;
  std::size_t counted = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double yhat = PredictOneStep(layout, params, state);
    const double e = z[t] - yhat;
    if (!std::isfinite(e) || std::fabs(e) > 1e12) return kInf;
    if (residuals) (*residuals)[t] = e;
    if (t >= warmup) {
      sse += e * e;
      ++counted;
    }
    UpdateState(layout, params, &state, e);
  }
  if (counted == 0) return kInf;
  if (final_state) *final_state = state;
  return sse;
}

Result<TbatsModel> TbatsModel::FitConfig(const std::vector<double>& y,
                                         const TbatsConfig& config,
                                         int max_iterations) {
  if (y.size() < 16) {
    return Status::InvalidArgument("TbatsModel: series too short");
  }
  for (const auto& s : config.seasons) {
    if (s.period <= 1.0 || s.harmonics == 0 ||
        2.0 * static_cast<double>(s.harmonics) >= s.period) {
      return Status::InvalidArgument("TbatsModel: invalid season spec");
    }
  }
  TbatsModel m;
  m.config_ = config;
  m.layout_ = MakeLayout(config);

  // Box-Cox.
  std::vector<double> z = y;
  m.lambda_ = 1.0;
  if (config.use_boxcox) {
    auto lam = tsa::EstimateBoxCoxLambda(y);
    if (!lam.ok()) return lam.status();
    m.lambda_ = *lam;
    CAPPLAN_ASSIGN_OR_RETURN(z, tsa::BoxCoxTransform(y, m.lambda_));
  }

  // Warmup: let the harmonic states settle over the longest period.
  double longest = 8.0;
  for (const auto& s : config.seasons) longest = std::max(longest, s.period);
  m.warmup_ = std::min<std::size_t>(
      static_cast<std::size_t>(longest) + 1, z.size() / 3);

  const std::size_t n_seasons = config.seasons.size();
  const int p = config.arma_p, q = config.arma_q;

  // Parameter packing for the optimizer. Bounded by logistic squashing.
  auto squash = [](double u, double lo, double hi) {
    return lo + (hi - lo) / (1.0 + std::exp(-u));
  };
  auto decode = [&](const std::vector<double>& x) {
    Params prm;
    std::size_t i = 0;
    prm.alpha = squash(x[i++], 0.001, 1.5);
    prm.beta = config.use_trend ? squash(x[i++], 0.0, 0.5) : 0.0;
    prm.phi = config.use_damping ? squash(x[i++], 0.8, 0.999)
                                 : (config.use_trend ? 1.0 : 0.0);
    prm.gamma1.resize(n_seasons);
    prm.gamma2.resize(n_seasons);
    for (std::size_t s = 0; s < n_seasons; ++s) {
      prm.gamma1[s] = squash(x[i++], -0.2, 0.6);
      prm.gamma2[s] = squash(x[i++], -0.2, 0.6);
    }
    prm.arma_phi.resize(static_cast<std::size_t>(p));
    prm.arma_theta.resize(static_cast<std::size_t>(q));
    for (int a = 0; a < p; ++a) {
      prm.arma_phi[static_cast<std::size_t>(a)] = squash(x[i++], -0.98, 0.98);
    }
    for (int a = 0; a < q; ++a) {
      prm.arma_theta[static_cast<std::size_t>(a)] =
          squash(x[i++], -0.98, 0.98);
    }
    return prm;
  };
  std::size_t dim = 1 + (config.use_trend ? 1 : 0) +
                    (config.use_damping ? 1 : 0) + 2 * n_seasons +
                    static_cast<std::size_t>(p + q);
  std::vector<double> x0(dim, 0.0);
  x0[0] = -2.0;  // alpha ~ 0.25

  math::Objective obj = [&](const std::vector<double>& x) {
    return RunFilter(z, m.layout_, decode(x), m.warmup_, nullptr, nullptr);
  };
  math::NelderMeadOptions nm;
  nm.max_iterations = max_iterations;
  nm.initial_step = 0.8;
  nm.restarts = 1;
  auto outcome = math::NelderMead(obj, x0, nm);
  if (!outcome.ok()) return outcome.status();
  if (!std::isfinite(outcome->fx)) {
    return Status::ComputeError("TbatsModel: filter diverged for all trials");
  }
  m.params_ = decode(outcome->x);
  const double sse = RunFilter(z, m.layout_, m.params_, m.warmup_,
                               &m.final_state_, &m.residuals_);
  const std::size_t n_eff = z.size() - m.warmup_;
  const std::size_t k = config.NumParams() + 2;  // + initial level/trend
  m.summary_.sse = sse;
  m.summary_.sigma2 = sse / static_cast<double>(n_eff);
  m.summary_.n_params = k;
  m.summary_.n_obs = n_eff;
  m.summary_.aic = tsa::AicFromSse(sse, n_eff, k);
  m.summary_.bic = tsa::BicFromSse(sse, n_eff, k);
  return m;
}

Result<Forecast> TbatsModel::Predict(std::size_t horizon,
                                     double level) const {
  if (horizon == 0) {
    return Status::InvalidArgument("TbatsModel::Predict: zero horizon");
  }
  if (final_state_.empty()) {
    return Status::FailedPrecondition("TbatsModel::Predict: model not fitted");
  }
  // Point forecast: propagate the state with zero innovations.
  auto propagate = [&](std::vector<double> state, double first_innovation) {
    std::vector<double> out(horizon);
    for (std::size_t h = 0; h < horizon; ++h) {
      out[h] = PredictOneStep(layout_, params_, state);
      const double e = (h == 0) ? first_innovation : 0.0;
      if (e != 0.0) out[h] += e;  // innovation enters y_t directly
      UpdateState(layout_, params_, &state, e);
    }
    return out;
  };
  const std::vector<double> mean_z = propagate(final_state_, 0.0);
  // Impulse response of a unit innovation at the first forecast step gives
  // the psi-weights of the linear system exactly.
  const std::vector<double> bumped = propagate(final_state_, 1.0);
  std::vector<double> psi(horizon);
  for (std::size_t h = 0; h < horizon; ++h) psi[h] = bumped[h] - mean_z[h];

  const double zq = math::NormalQuantile(0.5 * (1.0 + level));
  Forecast fc;
  fc.level = level;
  fc.mean.resize(horizon);
  fc.lower.resize(horizon);
  fc.upper.resize(horizon);
  double var = 0.0;
  for (std::size_t h = 0; h < horizon; ++h) {
    var += psi[h] * psi[h];
    const double half = zq * std::sqrt(summary_.sigma2 * var);
    const double lo_z = mean_z[h] - half;
    const double hi_z = mean_z[h] + half;
    if (config_.use_boxcox) {
      fc.mean[h] = tsa::InverseBoxCox(mean_z[h], lambda_);
      fc.lower[h] = tsa::InverseBoxCox(lo_z, lambda_);
      fc.upper[h] = tsa::InverseBoxCox(hi_z, lambda_);
    } else {
      fc.mean[h] = mean_z[h];
      fc.lower[h] = lo_z;
      fc.upper[h] = hi_z;
    }
  }
  return fc;
}

}  // namespace capplan::models
