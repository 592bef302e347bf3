#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agent/agent.h"
#include "common/fault.h"
#include "core/pipeline.h"
#include "repo/model_store.h"
#include "repo/repository.h"
#include "workload/cluster.h"
#include "workload/scenario.h"

// Golden digests of Pipeline::Run: for every technique on a synthetic, an
// OLAP and an OLTP series, plus every degradation-ladder rung, the selected
// family and spec, the bits of the held-out accuracy, the candidate counters,
// the winner's coefficients, the ladder rung, a hash of every forecast bound
// and the record the run leaves in the model registry. A refactor of the
// selection engine may change how a report is produced, never the report.
//
// The digests were captured on x86-64 Linux (glibc libm); the forecasts are
// computed, so another libm may round differently. On a mismatch the test
// prints the digest it got, ready to paste after a deliberate numerics
// change.

namespace capplan::core {
namespace {

// FNV-1a over the bit patterns of `values`.
std::uint64_t HashDoubles(const std::vector<double>& values) {
  std::uint64_t h = 14695981039346656037ULL;
  for (double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return Hex(bits);
}

std::string Digest(const PipelineReport& r,
                   const repo::ModelRepository& registry) {
  std::string d = std::string(TechniqueName(r.chosen_family)) + " | " +
                  r.chosen_spec + " | rmse=" + Bits(r.test_accuracy.rmse) +
                  " mape=" + Bits(r.test_accuracy.mape) +
                  " | cand=" + std::to_string(r.candidates_evaluated) + "/" +
                  std::to_string(r.candidates_succeeded) + "/" +
                  std::to_string(r.candidates_pruned) +
                  " | ar=" + Hex(HashDoubles(r.chosen_ar)) +
                  " ma=" + Hex(HashDoubles(r.chosen_ma)) + " | " +
                  DegradationLevelName(r.degradation) +
                  " | h=" + std::to_string(r.forecast.mean.size()) +
                  " mean=" + Hex(HashDoubles(r.forecast.mean)) +
                  " lower=" + Hex(HashDoubles(r.forecast.lower)) +
                  " upper=" + Hex(HashDoubles(r.forecast.upper)) +
                  " start=" + std::to_string(r.forecast_start_epoch);
  auto stored = registry.Get(r.series_name);
  if (!stored.ok()) return d + " | stored=none";
  std::vector<double> row = {stored->test_rmse, stored->test_mape,
                             static_cast<double>(stored->fitted_at_epoch)};
  row.insert(row.end(), stored->ar_coef.begin(), stored->ar_coef.end());
  row.insert(row.end(), stored->ma_coef.begin(), stored->ma_coef.end());
  row.insert(row.end(), stored->periods.begin(), stored->periods.end());
  return d + " | stored=" + stored->technique + " " + stored->spec + " " +
         Hex(HashDoubles(row));
}

// 46 days of hourly data: daily cycle, mild trend, unit noise.
tsa::TimeSeries Synthetic() {
  std::mt19937 rng(11);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<double> v(1100);
  for (std::size_t t = 0; t < v.size(); ++t) {
    const double x = static_cast<double>(t);
    v[t] = 60.0 + 15.0 * std::sin(2.0 * M_PI * x / 24.0) + 0.01 * x +
           noise(rng);
  }
  return tsa::TimeSeries("synthetic/cpu", 0, tsa::Frequency::kHourly, v);
}

// Daily cycle whose amplitude follows the week (quiet weekends): the
// double-seasonal shape DSHW exists for.
tsa::TimeSeries WeeklyDaily() {
  std::mt19937 rng(12);
  std::normal_distribution<double> noise(0.0, 0.5);
  std::vector<double> v(1100);
  for (std::size_t t = 0; t < v.size(); ++t) {
    const double x = static_cast<double>(t);
    const bool weekend = (t / 24) % 7 >= 5;
    const double amp = weekend ? 4.0 : 20.0;
    v[t] = 50.0 + (weekend ? -10.0 : 0.0) +
           amp * std::sin(2.0 * M_PI * x / 24.0) + noise(rng);
  }
  return tsa::TimeSeries("weekly/cpu", 0, tsa::Frequency::kHourly, v);
}

// 44 days of a simulated instance's CPU, hourly-aggregated through the
// central repository (the paper's Figure 5 data path).
tsa::TimeSeries Simulated(const workload::WorkloadScenario& scenario) {
  workload::ClusterSimulator sim(scenario, /*seed=*/99);
  agent::MonitoringAgent agent(&sim);
  auto raw = agent.CollectDays(0, workload::Metric::kCpu, 44);
  EXPECT_TRUE(raw.ok()) << raw.status();
  repo::MetricsRepository repository;
  const std::string key =
      repo::MetricsRepository::KeyFor(sim.InstanceName(0),
                                      workload::Metric::kCpu);
  EXPECT_TRUE(repository.Ingest(key, *raw).ok());
  auto hourly = repository.Hourly(key);
  EXPECT_TRUE(hourly.ok()) << hourly.status();
  return *hourly;
}

// Four months of daily data with a weekly cycle around zero: the HES family
// without the seasonal-multiplicative variant, and no DSHW contender.
tsa::TimeSeries DailyAroundZero() {
  std::mt19937 rng(13);
  std::normal_distribution<double> noise(0.0, 0.3);
  std::vector<double> v(120);
  for (std::size_t t = 0; t < v.size(); ++t) {
    v[t] = 0.5 + 2.0 * std::sin(2.0 * M_PI * static_cast<double>(t) / 7.0) +
           noise(rng);
  }
  return tsa::TimeSeries("daily/cpu", 0, tsa::Frequency::kDaily, v);
}

const tsa::TimeSeries& Olap() {
  static const tsa::TimeSeries s =
      Simulated(workload::WorkloadScenario::Olap());
  return s;
}
const tsa::TimeSeries& Oltp() {
  static const tsa::TimeSeries s =
      Simulated(workload::WorkloadScenario::Oltp());
  return s;
}

PipelineOptions Options(Technique technique) {
  PipelineOptions opts;
  opts.technique = technique;
  opts.max_lag = 3;
  opts.n_threads = 1;  // early-abort counters are exact single-threaded
  return opts;
}

class PipelineGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  // Runs the pipeline with a registry attached and compares the digest.
  void Expect(const tsa::TimeSeries& series, PipelineOptions opts,
              const std::string& expected) {
    repo::ModelRepository registry;
    opts.model_repository = &registry;
    auto report = Pipeline(opts).Run(series);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(Digest(*report, registry), expected);
  }
};

// --- every technique on the synthetic hourly series ----------------------

TEST_F(PipelineGoldenTest, SyntheticHes) {
  Expect(Synthetic(), Options(Technique::kHes),
         "HES | HW-additive-damped ETS(A,Ad,A) m=24 | "
         "rmse=3ff0cd5f5d090943 mape=3ff2f521def10731 | cand=7/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=84ddea0e6a3aca5e lower=51ffda6b142b1587 "
         "upper=8f2168221d4c4d8b start=3960000 | "
         "stored=HES HW-additive-damped ETS(A,Ad,A) m=24 686df6abba98205f");
}
TEST_F(PipelineGoldenTest, SyntheticSarimax) {
  Expect(Synthetic(), Options(Technique::kSarimax),
         "SARIMAX | (1,1,1)(0,1,1,24) | "
         "rmse=3ff2a171d2d8c272 mape=3ff5f139d012ad90 | cand=66/31/35 | "
         "ar=9714ca24095e4150 ma=6f50e3307c53db81 | full | "
         "h=24 mean=c25fb1a9a8c626c8 lower=53a5f082e1f375f2 "
         "upper=0c70fe2590a247ef start=3960000 | "
         "stored=SARIMAX (1,1,1)(0,1,1,24) a12a4a9bb54cbebb");
}
TEST_F(PipelineGoldenTest, SyntheticSarimaxFftExog) {
  Expect(Synthetic(), Options(Technique::kSarimaxFftExog),
         "SARIMAX_FFT_EXOG | (1,1,1)(1,1,1,24) | "
         "rmse=3ff63e4b215391e3 mape=3ff9525ddc140577 | cand=72/46/26 | "
         "ar=f8cf04a09c15e162 ma=ff809155e7d75712 | full | "
         "h=24 mean=6bea201c569db154 lower=d6ff84fd983d0dbf "
         "upper=1bff015b2bdbf9fd start=3960000 | "
         "stored=SARIMAX_FFT_EXOG (1,1,1)(1,1,1,24) e354f2f1025251f3");
}
TEST_F(PipelineGoldenTest, SyntheticTbats) {
  Expect(Synthetic(), Options(Technique::kTbats),
         "TBATS | "
         "TBATS(boxcox=y,trend=y,damped=y,arma=(0,0),seasons={24:1,197:1}) | "
         "rmse=3ff1df6636772fb2 mape=3ff37b45f4fee111 | cand=30/1/18 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=b8da4541e42639ee lower=0e4c9fb0506e4d71 "
         "upper=5d97b67c607ea95e start=3960000 | stored=TBATS "
         "TBATS(boxcox=y,trend=y,damped=y,arma=(0,0),seasons={24:1,197:1}) "
         "ebff1768f5dcadb9");
}
TEST_F(PipelineGoldenTest, SyntheticBaseline) {
  Expect(Synthetic(), Options(Technique::kBaseline),
         "BASELINE | seasonal-naive(24) | "
         "rmse=3ffb45eea0a8a3f9 mape=40002fdaf9910764 | cand=1/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=d9ade996df9ddbcd lower=d2608c2e45d95888 "
         "upper=df41db3e58152d3d start=3960000 | "
         "stored=BASELINE seasonal-naive(24) 73da1475301a6d45");
}
TEST_F(PipelineGoldenTest, SyntheticAuto) {
  Expect(Synthetic(), Options(Technique::kAuto),
         "HES | HW-additive-damped ETS(A,Ad,A) m=24 | "
         "rmse=3ff0cd5f5d090943 mape=3ff2f521def10731 | cand=7/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=84ddea0e6a3aca5e lower=51ffda6b142b1587 "
         "upper=8f2168221d4c4d8b start=3960000 | "
         "stored=HES HW-additive-damped ETS(A,Ad,A) m=24 686df6abba98205f");
}

// --- OLAP (Experiment One) ------------------------------------------------

TEST_F(PipelineGoldenTest, OlapHes) {
  Expect(Olap(), Options(Technique::kHes),
         "HES | HW-multiplicative ETS(A,A,M) m=24 | "
         "rmse=3fe1fcc73e97cb1f mape=3ff3b93b21b8addf | cand=7/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=130023eab6ab53be lower=090bf671e873f984 "
         "upper=6823042b1e8e8992 start=1563321600 | "
         "stored=HES HW-multiplicative ETS(A,A,M) m=24 1f127ec899584de9");
}
TEST_F(PipelineGoldenTest, OlapSarimax) {
  Expect(Olap(), Options(Technique::kSarimax),
         "SARIMAX | (2,1,0)(1,0,1,24) | "
         "rmse=3fe6101d4d357bd3 mape=3ffa57b2f6a5716c | cand=66/33/33 | "
         "ar=7db6c0e35ae6274d ma=1bd62f40a6b12cc4 | full | "
         "h=24 mean=540b3769e630284c lower=2132893e2ebc41f8 "
         "upper=4e1a7a25fd54c254 start=1563321600 | "
         "stored=SARIMAX (2,1,0)(1,0,1,24) 6856b239447e7f8f");
}
TEST_F(PipelineGoldenTest, OlapSarimaxFftExog) {
  Expect(Olap(), Options(Technique::kSarimaxFftExog),
         "SARIMAX_FFT_EXOG | (1,1,1)(1,1,1,24)+exog(1) | "
         "rmse=3fe6c92b725e41f3 mape=3ff8e25bb709424d | cand=72/43/29 | "
         "ar=7688b1c3c2ed97b5 ma=403277e3f5d4b4bf | full | "
         "h=24 mean=7455de5842795ffe lower=fc0b48a79a2051b7 "
         "upper=3a7854fa92e98e5c start=1563321600 | "
         "stored=SARIMAX_FFT_EXOG (1,1,1)(1,1,1,24)+exog(1) 4efa903482078236");
}
TEST_F(PipelineGoldenTest, OlapTbats) {
  Expect(Olap(), Options(Technique::kTbats),
         "TBATS | "
         "TBATS(boxcox=y,trend=n,damped=n,arma=(1,1),"
         "seasons={24:3,141:1,98:1}) | "
         "rmse=4009d124a9a542f4 mape=40207631bf8285c7 | cand=30/1/18 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=f57bf50a75006b67 lower=e93d735fa9e72842 "
         "upper=2aa1f9643fdc47ce start=1563321600 | stored=TBATS "
         "TBATS(boxcox=y,trend=n,damped=n,arma=(1,1),"
         "seasons={24:3,141:1,98:1}) 95da1e4ca01ebdc2");
}
TEST_F(PipelineGoldenTest, OlapBaseline) {
  Expect(Olap(), Options(Technique::kBaseline),
         "BASELINE | seasonal-naive(24) | "
         "rmse=3febc7be23efdc5e mape=4000bbc91cbd6a6c | cand=1/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=a4efa632683b7ab1 lower=b8dd52e99dc31333 "
         "upper=82cc838eee2286c6 start=1563321600 | "
         "stored=BASELINE seasonal-naive(24) 2c6220f3807ba3f6");
}
TEST_F(PipelineGoldenTest, OlapAuto) {
  Expect(Olap(), Options(Technique::kAuto),
         "HES | HW-multiplicative ETS(A,A,M) m=24 | "
         "rmse=3fe1fcc73e97cb1f mape=3ff3b93b21b8addf | cand=7/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=130023eab6ab53be lower=090bf671e873f984 "
         "upper=6823042b1e8e8992 start=1563321600 | "
         "stored=HES HW-multiplicative ETS(A,A,M) m=24 1f127ec899584de9");
}

// --- OLTP (Experiment Two) ------------------------------------------------

TEST_F(PipelineGoldenTest, OltpHes) {
  Expect(Oltp(), Options(Technique::kHes),
         "HES | DSHW(24,168) | rmse=3fe4c13a8eb4c969 mape=3ff8aedd30d4062f | "
         "cand=7/1/0 | ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=41d3a69de4a88a8e lower=383a462aae195a26 "
         "upper=744f072911a1a032 start=1563321600 | "
         "stored=HES DSHW(24,168) a695d382b89be396");
}
TEST_F(PipelineGoldenTest, OltpSarimax) {
  Expect(Oltp(), Options(Technique::kSarimax),
         "SARIMAX | (3,1,2)(0,1,1,24) | "
         "rmse=3fe8c9303479ed42 mape=400008a4bbb941ad | cand=66/44/22 | "
         "ar=bbc845bc30b9cec9 ma=97ed07fa537c4933 | full | "
         "h=24 mean=f71a15a9412edc9b lower=a21f30efe9d3cfd5 "
         "upper=ef394b52bdc1b063 start=1563321600 | "
         "stored=SARIMAX (3,1,2)(0,1,1,24) 77cc0b25cbffabdb");
}
TEST_F(PipelineGoldenTest, OltpSarimaxFftExog) {
  Expect(Oltp(), Options(Technique::kSarimaxFftExog),
         "SARIMAX_FFT_EXOG | (1,1,1)(1,1,1,24)+exog(2) | "
         "rmse=3ff2e2acbf178f31 mape=400bab39c02d0be9 | cand=72/35/37 | "
         "ar=0be73f13d764f6ad ma=5d1f72561221cfab | full | "
         "h=24 mean=32734f72198da5b3 lower=105df125e2e676b2 "
         "upper=25cff865eaa8caf9 start=1563321600 | "
         "stored=SARIMAX_FFT_EXOG (1,1,1)(1,1,1,24)+exog(2) 6b27ba07cba2ca82");
}
TEST_F(PipelineGoldenTest, OltpTbats) {
  Expect(Oltp(), Options(Technique::kTbats),
         "TBATS | "
         "TBATS(boxcox=y,trend=n,damped=n,arma=(0,1),seasons={24:3,164:1}) | "
         "rmse=40085d11b1d57788 mape=401c88601db414c5 | cand=30/1/18 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=41acd97c23a71f06 lower=3e2ae60054fe6683 "
         "upper=8ed28b40d14fe677 start=1563321600 | stored=TBATS "
         "TBATS(boxcox=y,trend=n,damped=n,arma=(0,1),seasons={24:3,164:1}) "
         "ba995b3d5b6b2e3e");
}
TEST_F(PipelineGoldenTest, OltpBaseline) {
  Expect(Oltp(), Options(Technique::kBaseline),
         "BASELINE | seasonal-naive(24) | "
         "rmse=3fea91bb2b592859 mape=40015baa303d20a5 | cand=1/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=e72cc7ba211fb384 lower=3ca977b30d7bae7f "
         "upper=f639962c3654a29a start=1563321600 | "
         "stored=BASELINE seasonal-naive(24) f2470a2e6f96e2e9");
}
TEST_F(PipelineGoldenTest, OltpAuto) {
  Expect(Oltp(), Options(Technique::kAuto),
         "HES | DSHW(24,168) | rmse=3fe4c13a8eb4c969 mape=3ff8aedd30d4062f | "
         "cand=7/1/0 | ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=41d3a69de4a88a8e lower=383a462aae195a26 "
         "upper=744f072911a1a032 start=1563321600 | "
         "stored=HES DSHW(24,168) a695d382b89be396");
}

// --- SARIMAX family options -----------------------------------------------

TEST_F(PipelineGoldenTest, OltpEnsembleWithoutTransients) {
  PipelineOptions opts = Options(Technique::kSarimaxFftExog);
  opts.ensemble_top_k = 3;
  opts.remove_transients = true;
  opts.horizon_override = 48;
  Expect(Oltp(), opts,
         "SARIMAX_FFT_EXOG | "
         "ensemble(top-3, best (1,1,1)(1,1,1,24)+exog(2)) | "
         "rmse=3ff2ba58fa6d5b34 mape=400b77b975738895 | cand=72/37/35 | "
         "ar=08b1cdb8160647d3 ma=f4cd291883bb06dd | full | "
         "h=48 mean=7128ce2deae5d3ab lower=3c2ff806b8a12bfb "
         "upper=d4ee6dd8255bf271 start=1563321600 | "
         "stored=SARIMAX_FFT_EXOG ensemble(top-3, best "
         "(1,1,1)(1,1,1,24)+exog(2)) 1ef622c90388c796");
}

// --- DSHW inside the HES family -------------------------------------------

TEST_F(PipelineGoldenTest, WeeklyHesPicksDshw) {
  Expect(WeeklyDaily(), Options(Technique::kHes),
         "HES | DSHW(24,168) | rmse=3fe08de92989e084 mape=3fe94a7f4362e3eb | "
         "cand=7/1/0 | ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=eedc4f0065ddc93a lower=8e6d44550f6bbf22 "
         "upper=b3c08c12f265c538 start=3960000 | "
         "stored=HES DSHW(24,168) e65a8303a4162a27");
}
TEST_F(PipelineGoldenTest, WeeklyAuto) {
  Expect(WeeklyDaily(), Options(Technique::kAuto),
         "HES | DSHW(24,168) | rmse=3fe08de92989e084 mape=3fe94a7f4362e3eb | "
         "cand=7/1/0 | ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=24 mean=eedc4f0065ddc93a lower=8e6d44550f6bbf22 "
         "upper=b3c08c12f265c538 start=3960000 | "
         "stored=HES DSHW(24,168) e65a8303a4162a27");
}

// --- daily cadence -------------------------------------------------------

TEST_F(PipelineGoldenTest, DailyHes) {
  Expect(DailyAroundZero(), Options(Technique::kHes),
         "HES | HW-additive-damped ETS(A,Ad,A) m=7 | "
         "rmse=3fd5467c32dc8fea mape=404a658d0785e156 | cand=5/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | full | "
         "h=7 mean=bac024e1910d790c lower=e30151d9cbe5498e "
         "upper=09d42d93b03584b6 start=10368000 | "
         "stored=HES HW-additive-damped ETS(A,Ad,A) m=7 28c6d3bd64a36955");
}
TEST_F(PipelineGoldenTest, DailyAuto) {
  Expect(DailyAroundZero(), Options(Technique::kAuto),
         "SARIMAX_FFT_EXOG | (1,1,0)(1,1,1,7)+exog(2) | "
         "rmse=3fd404db93f49f59 mape=4047d01229af7c33 | cand=72/19/53 | "
         "ar=c61a492026300969 ma=d9c6e96fff031beb | full | "
         "h=7 mean=411533ccf3291dcf lower=8341018a459aeb66 "
         "upper=2b6db08dd34802f3 start=10368000 | "
         "stored=SARIMAX_FFT_EXOG (1,1,0)(1,1,1,7)+exog(2) 698ad761df69b8f8");
}

// --- degradation ladder, forced through the fault sites ------------------

PipelineOptions LadderOptions() {
  PipelineOptions opts = Options(Technique::kSarimax);
  opts.degrade_on_failure = true;
  return opts;
}

TEST_F(PipelineGoldenTest, LadderHesRung) {
  ScopedFault run("pipeline.run", FaultPlan::FailN(1));
  Expect(Synthetic(), LadderOptions(),
         "HES | HW-additive-damped ETS(A,Ad,A) m=24 | "
         "rmse=3ff0cd5f5d090943 mape=3ff2f521def10731 | cand=7/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | hes | "
         "h=24 mean=84ddea0e6a3aca5e lower=51ffda6b142b1587 "
         "upper=8f2168221d4c4d8b start=3960000 | "
         "stored=HES HW-additive-damped ETS(A,Ad,A) m=24 686df6abba98205f");
}
TEST_F(PipelineGoldenTest, LadderSesRung) {
  ScopedFault run("pipeline.run", FaultPlan::FailN(1));
  ScopedFault hes("pipeline.hes", FaultPlan::FailForever());
  Expect(Synthetic(), LadderOptions(),
         "HES | SES (degraded) | "
         "rmse=40334d0110a7d996 mape=4034bb63aa449f97 | cand=1/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | ses | "
         "h=24 mean=ab0aa7272167d6c5 lower=5a2242ac0e4fe2da "
         "upper=df964c68666e060b start=3960000 | stored=none");
}
TEST_F(PipelineGoldenTest, LadderBaselineRung) {
  ScopedFault run("pipeline.run", FaultPlan::FailN(1));
  ScopedFault hes("pipeline.hes", FaultPlan::FailForever());
  ScopedFault ses("pipeline.ses", FaultPlan::FailForever());
  Expect(Synthetic(), LadderOptions(),
         "BASELINE | seasonal-naive(24) | "
         "rmse=3ffb45eea0a8a3f9 mape=40002fdaf9910764 | cand=1/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | baseline | "
         "h=24 mean=d9ade996df9ddbcd lower=0032cfe76aaf2b58 "
         "upper=2b088f2fd309d156 start=3960000 | stored=none");
}
// A series too short for the Table-1 split: the splitless rungs score on
// their own small holdout (SES), or on none at all (baseline below 8 points).
TEST_F(PipelineGoldenTest, LadderShortSeriesSes) {
  const tsa::TimeSeries s = *Synthetic().Slice(0, 100);
  Expect(s, LadderOptions(),
         "HES | SES (degraded) | "
         "rmse=402f7bfc1b3b3a34 mape=403868201ec31f8d | cand=1/1/0 | "
         "ar=cbf29ce484222325 ma=cbf29ce484222325 | ses | "
         "h=24 mean=bcdaa08b58a494f5 lower=887e7faf65462537 "
         "upper=95e9a7a7c7357eec start=360000 | stored=none");
}
TEST_F(PipelineGoldenTest, LadderShortSeriesBaseline) {
  ScopedFault ses("pipeline.ses", FaultPlan::FailForever());
  const tsa::TimeSeries s = *Synthetic().Slice(0, 40);
  Expect(s, LadderOptions(),
         "BASELINE | naive | rmse=402a8a7795d14bd8 mape=403213956712d02a | "
         "cand=1/1/0 | ar=cbf29ce484222325 ma=cbf29ce484222325 | baseline | "
         "h=24 mean=9af2e6351af524d5 lower=6d658a54cf0f4cf7 "
         "upper=7ca8df1a4deaa806 start=144000 | stored=none");
}
TEST_F(PipelineGoldenTest, LadderTinySeriesBaseline) {
  const tsa::TimeSeries s = *Synthetic().Slice(0, 6);
  Expect(s, LadderOptions(),
         "BASELINE | naive | rmse=0000000000000000 mape=0000000000000000 | "
         "cand=1/1/0 | ar=cbf29ce484222325 ma=cbf29ce484222325 | baseline | "
         "h=24 mean=e3c564bae38bd465 lower=d3c0990b1d094ed5 "
         "upper=137d8627e32b46c3 start=21600 | stored=none");
}

}  // namespace
}  // namespace capplan::core
