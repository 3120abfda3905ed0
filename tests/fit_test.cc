#include "ssm/fit.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mic::ssm {
namespace {

// Simulates x_t = level + seasonal + optional slope shift + noise.
std::vector<double> Simulate(int n, double level, double season_amp,
                             int change_point, double slope,
                             double noise_sd, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (int t = 0; t < n; ++t) {
    double value = level;
    value += season_amp * std::sin(2.0 * M_PI * t / 12.0);
    if (change_point >= 0 && t >= change_point) {
      value += slope * (t - change_point + 1);
    }
    value += rng.NextGaussian(0.0, noise_sd);
    x[t] = value;
  }
  return x;
}

TEST(FitTest, LocalLevelOnFlatSeries) {
  const std::vector<double> x = Simulate(43, 10.0, 0.0, -1, 0.0, 0.5, 1);
  StructuralSpec spec;
  auto fitted = FitStructuralModel(x, spec);
  ASSERT_TRUE(fitted.ok());
  EXPECT_TRUE(std::isfinite(fitted->log_likelihood));
  // On a flat series, the observation noise should absorb most variance.
  EXPECT_GT(fitted->variances.observation, fitted->variances.level);
}

TEST(FitTest, SeasonalComponentImprovesAicOnSeasonalData) {
  const std::vector<double> x = Simulate(43, 10.0, 4.0, -1, 0.0, 0.5, 2);
  StructuralSpec ll;
  StructuralSpec ll_s;
  ll_s.seasonal = true;
  auto fit_ll = FitStructuralModel(x, ll);
  auto fit_ll_s = FitStructuralModel(x, ll_s);
  ASSERT_TRUE(fit_ll.ok());
  ASSERT_TRUE(fit_ll_s.ok());
  EXPECT_LT(fit_ll_s->aic, fit_ll->aic);
}

TEST(FitTest, InterventionImprovesAicOnBrokenSeries) {
  const std::vector<double> x = Simulate(43, 10.0, 0.0, 20, 1.5, 0.5, 3);
  StructuralSpec ll;
  StructuralSpec ll_i;
  ll_i.set_change_point(20);
  auto fit_ll = FitStructuralModel(x, ll);
  auto fit_ll_i = FitStructuralModel(x, ll_i);
  ASSERT_TRUE(fit_ll.ok());
  ASSERT_TRUE(fit_ll_i.ok());
  EXPECT_LT(fit_ll_i->aic, fit_ll->aic);
}

TEST(FitTest, TrueChangePointBeatsWrongOne) {
  const std::vector<double> x = Simulate(43, 5.0, 0.0, 25, 2.0, 0.4, 4);
  StructuralSpec true_spec;
  true_spec.set_change_point(25);
  StructuralSpec wrong_spec;
  wrong_spec.set_change_point(8);
  auto fit_true = FitStructuralModel(x, true_spec);
  auto fit_wrong = FitStructuralModel(x, wrong_spec);
  ASSERT_TRUE(fit_true.ok());
  ASSERT_TRUE(fit_wrong.ok());
  EXPECT_LT(fit_true->aic, fit_wrong->aic);
}

TEST(FitTest, AicAccountsForParameters) {
  StructuralSpec ll;
  StructuralSpec full;
  full.seasonal = true;
  full.set_change_point(5);
  // Same log-likelihood -> richer model has higher (worse) AIC.
  EXPECT_GT(StructuralAic(-100.0, full), StructuralAic(-100.0, ll));
  EXPECT_DOUBLE_EQ(StructuralAic(-100.0, ll), 200.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(StructuralAic(-100.0, full), 200.0 + 2.0 * 16.0);
}

TEST(FitTest, FitOptionsValidateReportsFieldPaths) {
  FitOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.restarts = -1;
  auto invalid = options.Validate();
  EXPECT_FALSE(invalid.ok());
  EXPECT_NE(invalid.message().find("fit.restarts"), std::string::npos);

  options = FitOptions{};
  options.optimizer.max_evaluations = 0;
  EXPECT_NE(options.Validate().message().find(
                "fit.optimizer.max_evaluations"),
            std::string::npos);

  options = FitOptions{};
  options.optimizer.tolerance = 0.0;
  EXPECT_NE(options.Validate().message().find("fit.optimizer.tolerance"),
            std::string::npos);

  options = FitOptions{};
  options.optimizer.initial_step = -0.5;
  EXPECT_NE(options.Validate().message().find("fit.optimizer.initial_step"),
            std::string::npos);
}

TEST(FitTest, TooShortSeriesIsRejected) {
  StructuralSpec full;
  full.seasonal = true;
  full.set_change_point(2);
  const std::vector<double> x(8, 1.0);
  EXPECT_FALSE(FitStructuralModel(x, full).ok());
}

// Sweep noise levels: fitting must succeed and produce finite AIC.
class FitNoisePropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(FitNoisePropertyTest, FitsAcrossNoiseScales) {
  const double noise = GetParam();
  const std::vector<double> x =
      Simulate(43, 20.0, 3.0, 15, 1.0, noise, 99);
  StructuralSpec full;
  full.seasonal = true;
  full.set_change_point(15);
  auto fitted = FitStructuralModel(x, full);
  ASSERT_TRUE(fitted.ok()) << "noise " << noise;
  EXPECT_TRUE(std::isfinite(fitted->aic));
  EXPECT_GT(fitted->variances.observation, 0.0);
}

INSTANTIATE_TEST_SUITE_P(NoiseScales, FitNoisePropertyTest,
                         ::testing::Values(0.05, 0.2, 1.0, 5.0, 25.0));

}  // namespace
}  // namespace mic::ssm
