// Dense-reference contract of the Kalman filter. The filter forms T·a,
// T·P and (T·P)·T' from a sparse table of T's nonzeros; this test
// carries its own textbook filter that builds T·P·T' + RQR' and T·a
// with plain dense loops over every entry, and requires RunFilter,
// RunFilterWithRegression and RunFilterWithRegressors to match it bit
// for bit.
//
// Covered: the local level model (dim 1), two trigonometric harmonics
// (dim 5) and the dummy seasonal model (dim 12), which run on
// compile-time stack storage, and the one-harmonic model (dim 3), which
// runs on the workspace's heap storage; series with and without missing
// months; the steady-state shortcut (a 220-month series takes even dim
// 12 into it); the per-step states and covariances store_states keeps
// for the smoother; and the regression outputs lambda,
// lambda_variance and the profiled log-likelihood.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ssm/kalman.h"
#include "ssm/structural.h"

namespace mic::ssm {
namespace {

constexpr double kLogTwoPi = 1.8378770664093453;

// Row-major dim x dim matrix.
using Dense = std::vector<double>;

// --- Dense reference filter. -------------------------------------------

struct ReferenceModel {
  std::size_t dim = 0;
  Dense transition;
  Dense rqr;

  explicit ReferenceModel(const StateSpaceModel& model)
      : dim(model.state_dim()),
        transition(dim * dim),
        rqr(dim * dim, 0.0) {
    const std::size_t q = model.selection.cols();
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        transition[r * dim + c] = model.transition(r, c);
      }
    }
    // RQR' = (R Q) R', every term accumulated.
    Dense rq(dim * q, 0.0);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < q; ++c) {
        for (std::size_t k = 0; k < q; ++k) {
          rq[r * q + c] += model.selection(r, k) * model.state_noise(k, c);
        }
      }
    }
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        for (std::size_t k = 0; k < q; ++k) {
          rqr[r * dim + c] += rq[r * q + k] * model.selection(c, k);
        }
      }
    }
  }

  std::vector<double> TimesState(const std::vector<double>& a) const {
    std::vector<double> out(dim, 0.0);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        out[r] += transition[r * dim + c] * a[c];
      }
    }
    return out;
  }

  // T P T' + RQR', symmetrized.
  Dense Predict(const Dense& p) const {
    Dense tp(dim * dim, 0.0);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        for (std::size_t k = 0; k < dim; ++k) {
          tp[r * dim + c] += transition[r * dim + k] * p[k * dim + c];
        }
      }
    }
    Dense next(dim * dim, 0.0);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        for (std::size_t k = 0; k < dim; ++k) {
          next[r * dim + c] += tp[r * dim + k] * transition[c * dim + k];
        }
      }
    }
    for (std::size_t i = 0; i < dim * dim; ++i) next[i] += rqr[i];
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = r + 1; c < dim; ++c) {
        const double avg = 0.5 * (next[r * dim + c] + next[c * dim + r]);
        next[r * dim + c] = avg;
        next[c * dim + r] = avg;
      }
    }
    return next;
  }
};

double DenseDot(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  return total;
}

std::vector<double> DenseTimes(const Dense& p, const std::vector<double>& z) {
  const std::size_t dim = z.size();
  std::vector<double> out(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < dim; ++c) total += p[r * dim + c] * z[c];
    out[r] = total;
  }
  return out;
}

Dense Downdate(const Dense& p, const std::vector<double>& pz, double f) {
  const std::size_t dim = pz.size();
  Dense out = p;
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) out[r * dim + c] -= pz[r] * pz[c] / f;
  }
  return out;
}

Dense InitialCovariance(const StateSpaceModel& model) {
  const std::size_t dim = model.state_dim();
  Dense p(dim * dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      p[r * dim + c] = model.initial_covariance(r, c);
    }
  }
  return p;
}

// Output of the reference passes: the fields the contract compares.
struct ReferenceResult {
  double log_likelihood = 0.0;
  int effective = 0;
  int skipped_diffuse = 0;
  std::vector<double> predictions;
  std::vector<double> prediction_variances;
  std::vector<double> innovations;
  std::vector<double> final_state;
  Dense final_covariance;
  // Per-step a_{t|t-1} and P_{t|t-1} (store_states).
  std::vector<std::vector<double>> predicted_states;
  std::vector<Dense> predicted_covariances;
  // Whether the steady-state shortcut engaged.
  bool went_steady = false;
  // Regression outputs (lambda_hat per regressor).
  std::vector<double> lambdas;
  double lambda_variance = 0.0;
  double profiled_log_likelihood = 0.0;
};

// The plain filter, steady-state shortcut included.
ReferenceResult ReferenceFilter(const StateSpaceModel& model,
                                const std::vector<double>& x,
                                const KalmanOptions& options = {}) {
  const ReferenceModel ref(model);
  const std::size_t dim = ref.dim;
  const std::size_t n = x.size();
  ReferenceResult out;
  std::vector<double> a = model.initial_state.data();
  Dense p = InitialCovariance(model);
  const bool may_go_steady = options.allow_steady_state &&
                             model.time_varying.empty() &&
                             !options.store_states && n >= dim * dim + 20;
  bool steady = false;
  std::vector<double> steady_pz;
  double steady_f = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::vector<double> z = model.ObservationVector(t).data();
    if (options.store_states) {
      out.predicted_states.push_back(a);
      out.predicted_covariances.push_back(p);
    }
    const std::vector<double> pz = steady ? steady_pz : DenseTimes(p, z);
    const double prediction = DenseDot(z, a);
    const double f =
        steady ? steady_f : DenseDot(z, pz) + model.observation_variance;
    out.predictions.push_back(prediction);
    out.prediction_variances.push_back(f);
    if (std::isnan(x[t])) {
      out.innovations.push_back(std::numeric_limits<double>::quiet_NaN());
      a = ref.TimesState(a);
      steady = false;
      p = ref.Predict(p);
      continue;
    }
    const double v = x[t] - prediction;
    out.innovations.push_back(v);
    if (f > options.diffuse_variance_threshold) {
      ++out.skipped_diffuse;
    } else {
      out.log_likelihood -= 0.5 * (kLogTwoPi + std::log(f) + v * v / f);
      ++out.effective;
    }
    std::vector<double> filtered = a;
    for (std::size_t i = 0; i < dim; ++i) filtered[i] += pz[i] * (v / f);
    a = ref.TimesState(filtered);
    if (steady) continue;
    const Dense next = ref.Predict(Downdate(p, pz, f));
    if (may_go_steady) {
      double max_change = 0.0;
      double scale = 0.0;
      for (std::size_t i = 0; i < dim * dim; ++i) {
        max_change = std::max(max_change, std::fabs(next[i] - p[i]));
        scale = std::max(scale, std::fabs(p[i]));
      }
      if (max_change <=
          options.steady_state_tolerance * std::max(scale, 1e-300)) {
        steady = true;
        out.went_steady = true;
        steady_pz = DenseTimes(next, z);
        steady_f = DenseDot(z, steady_pz) + model.observation_variance;
      }
    }
    p = next;
  }
  out.final_state = a;
  out.final_covariance = p;
  return out;
}

// The filter with K regressors profiled out; K = 1 doubles as the
// reference for RunFilterWithRegression.
ReferenceResult ReferenceRegressors(
    const StateSpaceModel& model, const std::vector<double>& x,
    const std::vector<std::vector<double>>& w,
    const KalmanOptions& options = {}) {
  const ReferenceModel ref(model);
  const std::size_t dim = ref.dim;
  const std::size_t k = w.size();
  ReferenceResult out;
  std::vector<double> a = model.initial_state.data();
  std::vector<std::vector<double>> a_w(k, std::vector<double>(dim, 0.0));
  Dense p = InitialCovariance(model);
  la::Matrix s_ww(k, k);
  la::Vector s_wx(k);
  std::vector<double> v_w(k);
  for (std::size_t t = 0; t < x.size(); ++t) {
    const std::vector<double> z = model.ObservationVector(t).data();
    if (options.store_states) {
      out.predicted_states.push_back(a);
      out.predicted_covariances.push_back(p);
    }
    const std::vector<double> pz = DenseTimes(p, z);
    const double prediction = DenseDot(z, a);
    const double f = DenseDot(z, pz) + model.observation_variance;
    out.predictions.push_back(prediction);
    out.prediction_variances.push_back(f);
    if (std::isnan(x[t])) {
      out.innovations.push_back(std::numeric_limits<double>::quiet_NaN());
      a = ref.TimesState(a);
      for (auto& aw : a_w) aw = ref.TimesState(aw);
      p = ref.Predict(p);
      continue;
    }
    const double v = x[t] - prediction;
    out.innovations.push_back(v);
    for (std::size_t j = 0; j < k; ++j) v_w[j] = w[j][t] - DenseDot(z, a_w[j]);
    if (f > options.diffuse_variance_threshold) {
      ++out.skipped_diffuse;
    } else {
      out.log_likelihood -= 0.5 * (kLogTwoPi + std::log(f) + v * v / f);
      ++out.effective;
      for (std::size_t i = 0; i < k; ++i) {
        s_wx[i] += v_w[i] * v / f;
        for (std::size_t j = 0; j < k; ++j) s_ww(i, j) += v_w[i] * v_w[j] / f;
      }
    }
    std::vector<double> filtered = a;
    for (std::size_t i = 0; i < dim; ++i) filtered[i] += pz[i] * (v / f);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < dim; ++i) {
        a_w[j][i] += pz[i] * (v_w[j] / f);
      }
      a_w[j] = ref.TimesState(a_w[j]);
    }
    a = ref.TimesState(filtered);
    p = ref.Predict(Downdate(p, pz, f));
  }
  out.final_state = a;
  out.final_covariance = p;
  out.profiled_log_likelihood = out.log_likelihood;
  if (k == 1) {
    // RunFilterWithRegression's scalar form.
    out.lambda_variance = std::numeric_limits<double>::infinity();
    if (s_ww(0, 0) > 1e-12) {
      out.lambdas = {s_wx[0] / s_ww(0, 0)};
      out.lambda_variance = 1.0 / s_ww(0, 0);
      out.profiled_log_likelihood +=
          0.5 * s_wx[0] * s_wx[0] / s_ww(0, 0);
    }
  } else if (k > 1) {
    auto solution = la::CholeskySolve(s_ww, s_wx);
    if (solution.ok()) {
      out.lambdas = solution->data();
      out.profiled_log_likelihood += 0.5 * la::Dot(s_wx, *solution);
    }
  }
  return out;
}

// --- Bitwise comparison. -----------------------------------------------

void ExpectSameBits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ExpectSameBits(a[i], b[i], what);
  }
}

void ExpectMatchesReference(const FilterResult& got,
                            const ReferenceResult& want) {
  ExpectSameBits(got.log_likelihood, want.log_likelihood, "log_likelihood");
  EXPECT_EQ(got.effective_observations, want.effective);
  EXPECT_EQ(got.skipped_diffuse, want.skipped_diffuse);
  ExpectSameBits(got.predictions, want.predictions, "predictions");
  ExpectSameBits(got.prediction_variances, want.prediction_variances,
                 "prediction_variances");
  ExpectSameBits(got.innovations, want.innovations, "innovations");
  ExpectSameBits(got.final_state.data(), want.final_state, "final_state");
  const std::size_t dim = want.final_state.size();
  ASSERT_EQ(got.final_covariance.rows(), dim);
  ASSERT_EQ(got.final_covariance.cols(), dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      ExpectSameBits(got.final_covariance(r, c),
                     want.final_covariance[r * dim + c], "final_covariance");
    }
  }
  ASSERT_EQ(got.predicted_states.size(), want.predicted_states.size());
  ASSERT_EQ(got.predicted_covariances.size(),
            want.predicted_covariances.size());
  for (std::size_t t = 0; t < want.predicted_states.size(); ++t) {
    ExpectSameBits(got.predicted_states[t].data(), want.predicted_states[t],
                   "predicted_states");
    const la::Matrix& p = got.predicted_covariances[t];
    ASSERT_EQ(p.rows(), dim);
    ASSERT_EQ(p.cols(), dim);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        ExpectSameBits(p(r, c), want.predicted_covariances[t][r * dim + c],
                       "predicted_covariances");
      }
    }
  }
}

// --- Models and series. ------------------------------------------------

// 1 = level only, 3 = level + one trig harmonic (heap storage),
// 5 = level + two trig harmonics, 12 = level + period-12 dummy seasonal.
StateSpaceModel ModelForDim(int dim, double seasonal_variance = 0.03) {
  StructuralSpec spec;
  spec.seasonal = dim > 1;
  if (dim == 3 || dim == 5) {
    spec.seasonal_form = SeasonalForm::kTrigonometric;
    spec.harmonics = dim == 3 ? 1 : 2;
  }
  StructuralVariances variances;
  variances.observation = 0.9;
  variances.level = 0.2;
  variances.seasonal = seasonal_variance;
  auto model = BuildStructuralModel(spec, variances);
  EXPECT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->state_dim(), static_cast<std::size_t>(dim));
  return std::move(model).value();
}

std::vector<double> MakeSeries(int n, std::uint64_t seed, bool with_gap) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (int t = 0; t < n; ++t) {
    x[t] = 2.0 + 0.05 * t + std::sin(t * 0.5236) +
           rng.NextGaussian(0.0, 0.4);
  }
  if (with_gap) {
    for (int t = 7; t < n; t += 17) {
      x[t] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return x;
}

constexpr int kDims[] = {1, 3, 5, 12};

TEST(KalmanReferenceTest, FilterMatchesDenseReference) {
  for (int dim : kDims) {
    const StateSpaceModel model = ModelForDim(dim);
    for (bool with_gap : {false, true}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " gap " << with_gap);
      // 60 months: long enough for the steady-state shortcut at dims 1,
      // 3 and 5 (n >= dim^2 + 20), with or without missing months.
      const auto series = MakeSeries(60, 11 + dim, with_gap);
      const ReferenceResult want = ReferenceFilter(model, series);
      auto got = RunFilter(model, series);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectMatchesReference(*got, want);
    }
  }
}

TEST(KalmanReferenceTest, FilterMatchesDenseReferenceWithoutSteadyState) {
  KalmanOptions options;
  options.allow_steady_state = false;
  for (int dim : kDims) {
    SCOPED_TRACE(testing::Message() << "dim " << dim);
    const StateSpaceModel model = ModelForDim(dim);
    const auto series = MakeSeries(43, 23 + dim, /*with_gap=*/true);
    const ReferenceResult want = ReferenceFilter(model, series, options);
    auto got = RunFilter(model, series, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectMatchesReference(*got, want);
  }
}

TEST(KalmanReferenceTest, LongSeriesReachSteadyStateAtEveryDimension) {
  // 220 months clear n >= dim^2 + 20 at dim 12 too, and a strong
  // seasonal variance lets the dim-12 covariance settle by month ~134,
  // so every storage takes the shortcut; with it disabled, the full
  // recursion runs.
  for (int dim : kDims) {
    const StateSpaceModel model = ModelForDim(dim, /*seasonal_variance=*/10.0);
    const auto series = MakeSeries(220, 31 + dim, /*with_gap=*/false);
    for (bool allow : {true, false}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " steady " << allow);
      KalmanOptions options;
      options.allow_steady_state = allow;
      const ReferenceResult want = ReferenceFilter(model, series, options);
      EXPECT_EQ(want.went_steady, allow);
      auto got = RunFilter(model, series, options);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectMatchesReference(*got, want);
    }
  }
}

TEST(KalmanReferenceTest, StoredStatesMatchDenseReference) {
  // The smoother reads these per-step a_{t|t-1} and P_{t|t-1}.
  KalmanOptions options;
  options.store_states = true;
  for (int dim : kDims) {
    const StateSpaceModel model = ModelForDim(dim);
    const auto series = MakeSeries(60, 37 + dim, /*with_gap=*/true);
    SCOPED_TRACE(testing::Message() << "dim " << dim);
    const ReferenceResult want = ReferenceFilter(model, series, options);
    ASSERT_EQ(want.predicted_states.size(), series.size());
    auto got = RunFilter(model, series, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectMatchesReference(*got, want);

    const auto regressor = SlopeShiftRegressor(20, 60);
    const ReferenceResult want_w =
        ReferenceRegressors(model, series, {regressor}, options);
    auto got_w = RunFilterWithRegression(model, series, regressor, options);
    ASSERT_TRUE(got_w.ok()) << got_w.status();
    ExpectMatchesReference(got_w->base, want_w);
  }
}

TEST(KalmanReferenceTest, RegressionMatchesDenseReference) {
  for (int dim : kDims) {
    const StateSpaceModel model = ModelForDim(dim);
    for (bool with_gap : {false, true}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " gap " << with_gap);
      const auto series = MakeSeries(43, 47 + dim, with_gap);
      const auto regressor = SlopeShiftRegressor(20, 43);
      const ReferenceResult want =
          ReferenceRegressors(model, series, {regressor});
      ASSERT_EQ(want.lambdas.size(), 1u);
      auto got = RunFilterWithRegression(model, series, regressor);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectMatchesReference(got->base, want);
      ASSERT_TRUE(got->identified);
      ExpectSameBits(got->lambda, want.lambdas[0], "lambda");
      ExpectSameBits(got->lambda_variance, want.lambda_variance,
                     "lambda_variance");
      ExpectSameBits(got->profiled_log_likelihood,
                     want.profiled_log_likelihood, "profiled_log_likelihood");
    }
  }
}

TEST(KalmanReferenceTest, RegressorsMatchDenseReference) {
  for (int dim : kDims) {
    const StateSpaceModel model = ModelForDim(dim);
    for (bool with_gap : {false, true}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " gap " << with_gap);
      const auto series = MakeSeries(43, 59 + dim, with_gap);
      const std::vector<std::vector<double>> regressors = {
          InterventionRegressor({15, InterventionKind::kSlopeShift}, 43),
          InterventionRegressor({28, InterventionKind::kLevelShift}, 43)};
      const ReferenceResult want =
          ReferenceRegressors(model, series, regressors);
      ASSERT_EQ(want.lambdas.size(), 2u);
      auto got = RunFilterWithRegressors(model, series, regressors);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectMatchesReference(got->base, want);
      ASSERT_TRUE(got->identified);
      ExpectSameBits(got->lambdas, want.lambdas, "lambdas");
      ExpectSameBits(got->profiled_log_likelihood,
                     want.profiled_log_likelihood, "profiled_log_likelihood");
    }
  }
}

TEST(KalmanReferenceTest, NoRegressorsIsThePlainFilter) {
  for (int dim : kDims) {
    SCOPED_TRACE(testing::Message() << "dim " << dim);
    const StateSpaceModel model = ModelForDim(dim);
    const auto series = MakeSeries(43, 67 + dim, /*with_gap=*/true);
    auto plain = RunFilter(model, series);
    auto empty = RunFilterWithRegressors(model, series, {});
    ASSERT_TRUE(plain.ok()) << plain.status();
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_TRUE(empty->identified);
    EXPECT_TRUE(empty->lambdas.empty());
    ExpectSameBits(empty->base.log_likelihood, plain->log_likelihood,
                   "log_likelihood");
    ExpectSameBits(empty->profiled_log_likelihood, plain->log_likelihood,
                   "profiled_log_likelihood");
  }
}

TEST(KalmanReferenceTest, ReferenceDistinguishesADifferentTransition) {
  // Guard against a vacuous reference: perturbing one nonzero of T must
  // move the reference off the library's answer.
  StateSpaceModel model = ModelForDim(12);
  const auto series = MakeSeries(43, 71, /*with_gap=*/true);
  auto got = RunFilter(model, series);
  ASSERT_TRUE(got.ok()) << got.status();
  model.transition(1, 1) = -1.0 + 1e-9;
  const ReferenceResult perturbed = ReferenceFilter(model, series);
  EXPECT_NE(std::bit_cast<std::uint64_t>(got->log_likelihood),
            std::bit_cast<std::uint64_t>(perturbed.log_likelihood));
}

}  // namespace
}  // namespace mic::ssm
