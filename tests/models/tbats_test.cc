#include "models/tbats.h"

#include <algorithm>
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "core/lattice/tbats_lattice.h"
#include "tsa/metrics.h"

namespace capplan::models {
namespace {

std::vector<double> SeasonalSeries(std::size_t n, double period, double amp,
                                   double base, double slope, double noise,
                                   unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, noise);
  std::vector<double> y(n);
  for (std::size_t t = 0; t < n; ++t) {
    y[t] = base + slope * static_cast<double>(t) +
           amp * std::sin(2.0 * M_PI * static_cast<double>(t) / period);
    if (noise > 0.0) y[t] += dist(rng);
  }
  return y;
}

TEST(TbatsConfigTest, ToStringAndParamCount) {
  TbatsConfig cfg;
  cfg.use_boxcox = true;
  cfg.use_trend = true;
  cfg.use_damping = true;
  cfg.arma_p = 1;
  cfg.arma_q = 1;
  cfg.seasons = {{24.0, 3}};
  const std::string s = cfg.ToString();
  EXPECT_NE(s.find("boxcox=y"), std::string::npos);
  EXPECT_NE(s.find("24:3"), std::string::npos);
  // alpha + beta + phi + 2*gamma + p + q + lambda = 8.
  EXPECT_EQ(cfg.NumParams(), 8u);
}

TEST(TbatsFitTest, SingleSeasonForecast) {
  const auto y = SeasonalSeries(24 * 20, 24.0, 8.0, 50.0, 0.0, 0.3, 1);
  TbatsConfig cfg;
  cfg.use_trend = false;
  cfg.seasons = {{24.0, 2}};
  auto m = TbatsModel::FitConfig(y, cfg);
  ASSERT_TRUE(m.ok());
  auto fc = m->Predict(24);
  ASSERT_TRUE(fc.ok());
  double max_err = 0.0;
  for (std::size_t h = 0; h < 24; ++h) {
    const double expected =
        50.0 + 8.0 * std::sin(2.0 * M_PI *
                              static_cast<double>(y.size() + h) / 24.0);
    max_err = std::max(max_err, std::fabs(fc->mean[h] - expected));
  }
  EXPECT_LT(max_err, 3.0);
}

TEST(TbatsFitTest, TrendCaptured) {
  const auto y = SeasonalSeries(24 * 15, 24.0, 5.0, 20.0, 0.1, 0.3, 2);
  TbatsConfig cfg;
  cfg.use_trend = true;
  cfg.seasons = {{24.0, 2}};
  auto m = TbatsModel::FitConfig(y, cfg);
  ASSERT_TRUE(m.ok());
  auto fc = m->Predict(48);
  ASSERT_TRUE(fc.ok());
  // Forecast should keep growing roughly at the trend rate.
  const double growth = fc->mean[47] - fc->mean[0];
  EXPECT_NEAR(growth, 0.1 * 47.0, 2.5);
}

TEST(TbatsFitTest, NonIntegerPeriodSupported) {
  // TBATS's trigonometric representation handles non-integer seasons, which
  // integer-lag SARIMA cannot (the paper's motivation for TBATS).
  const auto y = SeasonalSeries(500, 24.5, 6.0, 30.0, 0.0, 0.2, 3);
  TbatsConfig cfg;
  cfg.use_trend = false;
  cfg.seasons = {{24.5, 2}};
  auto m = TbatsModel::FitConfig(y, cfg);
  ASSERT_TRUE(m.ok());
  auto fc = m->Predict(24);
  ASSERT_TRUE(fc.ok());
  double max_err = 0.0;
  for (std::size_t h = 0; h < 24; ++h) {
    const double expected =
        30.0 + 6.0 * std::sin(2.0 * M_PI *
                              static_cast<double>(y.size() + h) / 24.5);
    max_err = std::max(max_err, std::fabs(fc->mean[h] - expected));
  }
  EXPECT_LT(max_err, 2.5);
}

TEST(TbatsFitTest, RejectsBadSeasonSpecs) {
  const auto y = SeasonalSeries(100, 10.0, 1.0, 5.0, 0.0, 0.1, 4);
  TbatsConfig cfg;
  cfg.seasons = {{1.0, 1}};
  EXPECT_FALSE(TbatsModel::FitConfig(y, cfg).ok());
  cfg.seasons = {{10.0, 5}};  // 2k >= period
  EXPECT_FALSE(TbatsModel::FitConfig(y, cfg).ok());
  cfg.seasons = {{10.0, 0}};
  EXPECT_FALSE(TbatsModel::FitConfig(y, cfg).ok());
}

TEST(TbatsFitTest, RejectsShortSeries) {
  TbatsConfig cfg;
  EXPECT_FALSE(TbatsModel::FitConfig({1, 2, 3}, cfg).ok());
}

TEST(TbatsLatticeTest, SelectsByAicAndForecastsWell) {
  const auto y = SeasonalSeries(24 * 15, 24.0, 8.0, 60.0, 0.05, 0.4, 5);
  core::lattice::TbatsLatticeOptions opts;
  opts.model.max_harmonics = 2;
  opts.model.try_boxcox = false;  // keep the test fast
  opts.model.try_damping = false;
  opts.model.max_fit_iterations = 250;
  opts.prune = false;  // the exhaustive oracle: every config at full budget
  auto sel = core::lattice::TbatsLattice(opts).Select(y, {24.0});
  ASSERT_TRUE(sel.ok());
  auto fc = sel->model.Predict(24);
  ASSERT_TRUE(fc.ok());
  std::vector<double> expected(24);
  for (std::size_t h = 0; h < 24; ++h) {
    const double t = static_cast<double>(y.size() + h);
    expected[h] = 60.0 + 0.05 * t + 8.0 * std::sin(2.0 * M_PI * t / 24.0);
  }
  auto rmse = tsa::Rmse(expected, fc->mean);
  ASSERT_TRUE(rmse.ok());
  EXPECT_LT(*rmse, 3.0);
}

TEST(TbatsPredictTest, IntervalsWidenAndBracketMean) {
  const auto y = SeasonalSeries(24 * 12, 24.0, 5.0, 40.0, 0.0, 0.5, 6);
  TbatsConfig cfg;
  cfg.use_trend = false;
  cfg.seasons = {{24.0, 1}};
  auto m = TbatsModel::FitConfig(y, cfg);
  ASSERT_TRUE(m.ok());
  auto fc = m->Predict(30);
  ASSERT_TRUE(fc.ok());
  for (std::size_t h = 0; h < 30; ++h) {
    EXPECT_LE(fc->lower[h], fc->mean[h]);
    EXPECT_GE(fc->upper[h], fc->mean[h]);
  }
  EXPECT_GT(fc->upper[29] - fc->lower[29], fc->upper[0] - fc->lower[0]);
}

TEST(TbatsPredictTest, UnfittedModelRejected) {
  const auto y = SeasonalSeries(24 * 12, 24.0, 5.0, 40.0, 0.0, 0.5, 7);
  TbatsConfig cfg;
  cfg.seasons = {{24.0, 1}};
  auto m = TbatsModel::FitConfig(y, cfg);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->Predict(0).ok());
}

TEST(TbatsBoxCoxTest, PositiveDataWithBoxCoxStaysPositive) {
  // Multiplicative-looking data: Box-Cox arm should produce positive
  // forecasts with asymmetric intervals.
  std::mt19937 rng(8);
  std::normal_distribution<double> dist(0.0, 0.05);
  std::vector<double> y(24 * 12);
  for (std::size_t t = 0; t < y.size(); ++t) {
    y[t] = 100.0 * std::exp(0.3 * std::sin(2.0 * M_PI *
                                           static_cast<double>(t) / 24.0) +
                            dist(rng));
  }
  TbatsConfig cfg;
  cfg.use_boxcox = true;
  cfg.use_trend = false;
  cfg.seasons = {{24.0, 2}};
  auto m = TbatsModel::FitConfig(y, cfg);
  ASSERT_TRUE(m.ok());
  auto fc = m->Predict(24);
  ASSERT_TRUE(fc.ok());
  for (std::size_t h = 0; h < 24; ++h) {
    EXPECT_GE(fc->lower[h], 0.0);
    EXPECT_GT(fc->mean[h], 0.0);
  }
}

}  // namespace
}  // namespace capplan::models
