#include "ssm/kalman.h"

#include <cmath>
#include <limits>

namespace mic::ssm {
namespace {

constexpr double kLogTwoPi = 1.8378770664093453;

bool IsMissing(double x) { return std::isnan(x); }

// RQR' is constant across a pass; computed into ws.rqr via ws scratch.
void ComputeRqrInto(const StateSpaceModel& model, KalmanWorkspace& ws) {
  la::MultiplyInto(model.selection, model.state_noise, &ws.tmp_matrix);
  la::TransposeInto(model.selection, &ws.tmp_matrix2);
  la::MultiplyInto(ws.tmp_matrix, ws.tmp_matrix2, &ws.rqr);
}

// next_covariance <- T * source * T' + rqr, symmetrized.
void PredictCovariance(KalmanWorkspace& ws, const la::Matrix& source) {
  ws.transition.TimesMatrix(source, &ws.tmp_matrix);
  ws.transition.MatrixTimesTranspose(ws.tmp_matrix, &ws.next_covariance);
  ws.next_covariance += ws.rqr;
  ws.next_covariance.Symmetrize();
}

// covariance <- T * source * T' + rqr, symmetrized.
void AdvanceCovariance(KalmanWorkspace& ws, const la::Matrix& source) {
  PredictCovariance(ws, source);
  std::swap(ws.covariance, ws.next_covariance);
}

}  // namespace

void SparseTransition::Assign(const la::Matrix& transition) {
  const std::size_t dim = transition.rows();
  row_begin_.assign(1, 0);
  cols_.clear();
  values_.clear();
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (transition(r, c) == 0.0) continue;
      cols_.push_back(c);
      values_.push_back(transition(r, c));
    }
    row_begin_.push_back(cols_.size());
  }
}

void SparseTransition::TimesVector(const la::Vector& v,
                                   la::Vector* out) const {
  const std::size_t dim = row_begin_.size() - 1;
  out->Resize(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    double total = 0.0;
    for (std::size_t i = row_begin_[r]; i < row_begin_[r + 1]; ++i) {
      total += values_[i] * v[cols_[i]];
    }
    (*out)[r] = total;
  }
}

void SparseTransition::TimesMatrix(const la::Matrix& m,
                                   la::Matrix* out) const {
  const std::size_t dim = row_begin_.size() - 1;
  out->Resize(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t i = row_begin_[r]; i < row_begin_[r + 1]; ++i) {
      const double t_rk = values_[i];
      const std::size_t k = cols_[i];
      for (std::size_t c = 0; c < dim; ++c) (*out)(r, c) += t_rk * m(k, c);
    }
  }
}

void SparseTransition::MatrixTimesTranspose(const la::Matrix& m,
                                            la::Matrix* out) const {
  const std::size_t dim = row_begin_.size() - 1;
  out->Resize(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      double total = 0.0;
      for (std::size_t i = row_begin_[c]; i < row_begin_[c + 1]; ++i) {
        total += m(r, cols_[i]) * values_[i];
      }
      (*out)(r, c) = total;
    }
  }
}

std::string_view KalmanKernelName(KalmanKernel kernel) {
  switch (kernel) {
    case KalmanKernel::kAuto:
      return "auto";
    case KalmanKernel::kDynamic:
      return "dynamic";
    case KalmanKernel::kFixed:
      return "fixed";
  }
  return "?";
}

KalmanWorkspace& KalmanWorkspace::ThreadLocal() {
  static thread_local KalmanWorkspace workspace;
  return workspace;
}

Result<FilterResult> RunFilter(const StateSpaceModel& model,
                               const std::vector<double>& observations,
                               const KalmanOptions& options) {
  MIC_RETURN_IF_ERROR(model.Validate());
  const std::size_t n = observations.size();

  FilterResult result;
  result.predictions.resize(n);
  result.prediction_variances.resize(n);
  result.innovations.resize(n);
  if (options.store_states) {
    result.predicted_states.reserve(n);
    result.predicted_covariances.reserve(n);
  }

  // All per-step temporaries live in the thread's workspace; the only
  // allocations left in this pass are the result vectors above.
  KalmanWorkspace& ws = KalmanWorkspace::ThreadLocal();
  ++ws.acquires;
  ComputeRqrInto(model, ws);
  ws.transition.Assign(model.transition);
  ws.state = model.initial_state;                // a_{t|t-1}
  ws.covariance = model.initial_covariance;      // P_{t|t-1}

  int skipped_diffuse = 0;
  double log_likelihood = 0.0;
  int effective = 0;

  // Steady-state shortcut: legal only when Z is time-invariant, the
  // caller does not need per-step covariances, and no observations are
  // missing mid-stream (a gap restarts the covariance transient). Only
  // worth checking when the series is long relative to the state
  // dimension — high-dimensional covariances converge too slowly to
  // amortize the per-step convergence test on short windows (the
  // transient scales roughly with dim^2 for the coupled seasonal
  // states).
  const std::size_t dim = model.state_dim();
  const bool may_go_steady = options.allow_steady_state &&
                             model.time_varying.empty() &&
                             !options.store_states &&
                             n >= dim * dim + 20;
  bool steady = false;
  double steady_variance = 0.0;

  for (std::size_t t = 0; t < n; ++t) {
    model.ObservationVectorInto(t, &ws.z);
    const la::Vector& z = ws.z;
    if (options.store_states) {
      result.predicted_states.push_back(ws.state);
      result.predicted_covariances.push_back(ws.covariance);
    }

    if (!steady) la::MultiplyInto(ws.covariance, z, &ws.pz);
    const la::Vector& pz = steady ? ws.steady_pz : ws.pz;
    const double prediction = la::Dot(z, ws.state);
    const double prediction_variance =
        steady ? steady_variance
               : la::Dot(z, pz) + model.observation_variance;
    result.predictions[t] = prediction;
    result.prediction_variances[t] = prediction_variance;

    const double x = observations[t];
    if (IsMissing(x)) {
      result.innovations[t] = std::numeric_limits<double>::quiet_NaN();
      // No update; just predict forward. A gap invalidates the steady
      // state (the covariance grows through it).
      ws.transition.TimesVector(ws.state, &ws.tmp_vector);
      std::swap(ws.state, ws.tmp_vector);
      if (steady) {
        steady = false;
      }
      AdvanceCovariance(ws, ws.covariance);
      continue;
    }

    if (!(prediction_variance > 0.0) ||
        !std::isfinite(prediction_variance)) {
      return Status::NumericError(
          "non-positive prediction variance at t=" + std::to_string(t));
    }

    const double innovation = x - prediction;
    result.innovations[t] = innovation;

    if (prediction_variance > options.diffuse_variance_threshold) {
      ++skipped_diffuse;
    } else {
      log_likelihood -=
          0.5 * (kLogTwoPi + std::log(prediction_variance) +
                 innovation * innovation / prediction_variance);
      ++effective;
    }

    // Measurement update then time update.
    const double gain_scale = innovation / prediction_variance;
    ws.filtered = ws.state;
    for (std::size_t i = 0; i < ws.filtered.size(); ++i) {
      ws.filtered[i] += pz[i] * gain_scale;
    }
    ws.transition.TimesVector(ws.filtered, &ws.tmp_vector);
    std::swap(ws.state, ws.tmp_vector);
    if (steady) continue;  // Covariance frozen.

    ws.filtered_covariance = ws.covariance;
    for (std::size_t r = 0; r < ws.filtered_covariance.rows(); ++r) {
      for (std::size_t c = 0; c < ws.filtered_covariance.cols(); ++c) {
        ws.filtered_covariance(r, c) -=
            pz[r] * pz[c] / prediction_variance;
      }
    }
    PredictCovariance(ws, ws.filtered_covariance);
    if (may_go_steady) {
      // Max-abs of (next - current) without forming the difference;
      // identical to the matrix-difference form value by value.
      double max_change = 0.0;
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
          max_change = std::max(
              max_change, std::fabs(ws.next_covariance(r, c) -
                                    ws.covariance(r, c)));
        }
      }
      const double scale = std::max(ws.covariance.MaxAbs(), 1e-300);
      if (max_change <= options.steady_state_tolerance * scale) {
        steady = true;
        la::MultiplyInto(ws.next_covariance, z, &ws.steady_pz);
        steady_variance =
            la::Dot(z, ws.steady_pz) + model.observation_variance;
      }
    }
    std::swap(ws.covariance, ws.next_covariance);
  }

  result.log_likelihood = log_likelihood;
  result.effective_observations = effective;
  result.skipped_diffuse = skipped_diffuse;
  result.final_state = ws.state;
  result.final_covariance = ws.covariance;
  return result;
}

Result<RegressionFilterResult> RunFilterWithRegression(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options) {
  if (regressor.size() < observations.size()) {
    return Status::InvalidArgument(
        "regressor shorter than the observations");
  }
  MIC_RETURN_IF_ERROR(model.Validate());
  const std::size_t n = observations.size();

  RegressionFilterResult result;
  FilterResult& base = result.base;
  base.predictions.resize(n);
  base.prediction_variances.resize(n);
  base.innovations.resize(n);
  if (options.store_states) {
    base.predicted_states.reserve(n);
    base.predicted_covariances.reserve(n);
  }

  // One fused pass: the gain sequence depends only on the covariance
  // recursion, so the observation series x and the regressor series w
  // share P and F; only the state means differ. state/filtered hold the
  // x recursion, state_aux/filtered_aux the w recursion.
  KalmanWorkspace& ws = KalmanWorkspace::ThreadLocal();
  ++ws.acquires;
  ComputeRqrInto(model, ws);
  ws.transition.Assign(model.transition);
  ws.state = model.initial_state;
  ws.state_aux.Resize(model.state_dim());
  ws.covariance = model.initial_covariance;

  double log_likelihood = 0.0;
  int effective = 0;
  int skipped_diffuse = 0;
  double s_ww = 0.0;
  double s_wx = 0.0;

  for (std::size_t t = 0; t < n; ++t) {
    model.ObservationVectorInto(t, &ws.z);
    const la::Vector& z = ws.z;
    if (options.store_states) {
      base.predicted_states.push_back(ws.state);
      base.predicted_covariances.push_back(ws.covariance);
    }

    la::MultiplyInto(ws.covariance, z, &ws.pz);
    const la::Vector& pz = ws.pz;
    const double prediction_x = la::Dot(z, ws.state);
    const double prediction_variance =
        la::Dot(z, pz) + model.observation_variance;
    base.predictions[t] = prediction_x;
    base.prediction_variances[t] = prediction_variance;

    const double x = observations[t];
    if (IsMissing(x)) {
      base.innovations[t] = std::numeric_limits<double>::quiet_NaN();
      ws.transition.TimesVector(ws.state, &ws.tmp_vector);
      std::swap(ws.state, ws.tmp_vector);
      ws.transition.TimesVector(ws.state_aux, &ws.tmp_vector);
      std::swap(ws.state_aux, ws.tmp_vector);
      AdvanceCovariance(ws, ws.covariance);
      continue;
    }
    if (!(prediction_variance > 0.0) ||
        !std::isfinite(prediction_variance)) {
      return Status::NumericError(
          "non-positive prediction variance at t=" + std::to_string(t));
    }

    const double v_x = x - prediction_x;
    const double v_w = regressor[t] - la::Dot(z, ws.state_aux);
    base.innovations[t] = v_x;

    if (prediction_variance > options.diffuse_variance_threshold) {
      ++skipped_diffuse;
    } else {
      log_likelihood -=
          0.5 * (kLogTwoPi + std::log(prediction_variance) +
                 v_x * v_x / prediction_variance);
      ++effective;
      s_ww += v_w * v_w / prediction_variance;
      s_wx += v_w * v_x / prediction_variance;
    }

    // Shared measurement + time update.
    const double gain_x = v_x / prediction_variance;
    const double gain_w = v_w / prediction_variance;
    ws.filtered = ws.state;
    ws.filtered_aux = ws.state_aux;
    for (std::size_t i = 0; i < ws.filtered.size(); ++i) {
      ws.filtered[i] += pz[i] * gain_x;
      ws.filtered_aux[i] += pz[i] * gain_w;
    }
    ws.filtered_covariance = ws.covariance;
    for (std::size_t r = 0; r < ws.filtered_covariance.rows(); ++r) {
      for (std::size_t c = 0; c < ws.filtered_covariance.cols(); ++c) {
        ws.filtered_covariance(r, c) -=
            pz[r] * pz[c] / prediction_variance;
      }
    }
    ws.transition.TimesVector(ws.filtered, &ws.state);
    ws.transition.TimesVector(ws.filtered_aux, &ws.state_aux);
    AdvanceCovariance(ws, ws.filtered_covariance);
  }

  base.log_likelihood = log_likelihood;
  base.effective_observations = effective;
  base.skipped_diffuse = skipped_diffuse;
  base.final_state = ws.state;
  base.final_covariance = ws.covariance;
  if (s_ww > 1e-12) {
    result.identified = true;
    result.lambda = s_wx / s_ww;
    result.lambda_variance = 1.0 / s_ww;
    result.profiled_log_likelihood =
        result.base.log_likelihood + 0.5 * s_wx * s_wx / s_ww;
  } else {
    result.identified = false;
    result.lambda = 0.0;
    result.lambda_variance = std::numeric_limits<double>::infinity();
    result.profiled_log_likelihood = result.base.log_likelihood;
  }
  return result;
}

Result<MultiRegressionFilterResult> RunFilterWithRegressors(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options) {
  const std::size_t k = regressors.size();
  for (const auto& regressor : regressors) {
    if (regressor.size() < observations.size()) {
      return Status::InvalidArgument(
          "regressor shorter than the observations");
    }
  }
  MIC_RETURN_IF_ERROR(model.Validate());
  const std::size_t n = observations.size();
  const std::size_t dim = model.state_dim();

  MultiRegressionFilterResult result;
  FilterResult& base = result.base;
  base.predictions.resize(n);
  base.prediction_variances.resize(n);
  base.innovations.resize(n);

  // The shared z/pz/covariance recursion borrows the workspace like the
  // plain filter; only the K per-regressor state means stay per-call
  // (their count varies with the query, not the thread).
  KalmanWorkspace& ws = KalmanWorkspace::ThreadLocal();
  ++ws.acquires;
  ComputeRqrInto(model, ws);
  ws.transition.Assign(model.transition);
  ws.state = model.initial_state;
  std::vector<la::Vector> state_w(k, la::Vector(dim));
  ws.covariance = model.initial_covariance;

  double log_likelihood = 0.0;
  int effective = 0;
  int skipped_diffuse = 0;
  la::Matrix s_ww(k, k);
  la::Vector s_wx(k);
  std::vector<double> v_w(k);

  for (std::size_t t = 0; t < n; ++t) {
    model.ObservationVectorInto(t, &ws.z);
    const la::Vector& z = ws.z;
    la::MultiplyInto(ws.covariance, z, &ws.pz);
    const la::Vector& pz = ws.pz;
    const double prediction_x = la::Dot(z, ws.state);
    const double prediction_variance =
        la::Dot(z, pz) + model.observation_variance;
    base.predictions[t] = prediction_x;
    base.prediction_variances[t] = prediction_variance;

    const double x = observations[t];
    if (IsMissing(x)) {
      base.innovations[t] = std::numeric_limits<double>::quiet_NaN();
      ws.transition.TimesVector(ws.state, &ws.tmp_vector);
      std::swap(ws.state, ws.tmp_vector);
      for (auto& state : state_w) {
        ws.transition.TimesVector(state, &ws.tmp_vector);
        std::swap(state, ws.tmp_vector);
      }
      AdvanceCovariance(ws, ws.covariance);
      continue;
    }
    if (!(prediction_variance > 0.0) ||
        !std::isfinite(prediction_variance)) {
      return Status::NumericError(
          "non-positive prediction variance at t=" + std::to_string(t));
    }

    const double v_x = x - prediction_x;
    base.innovations[t] = v_x;
    for (std::size_t j = 0; j < k; ++j) {
      v_w[j] = regressors[j][t] - la::Dot(z, state_w[j]);
    }

    if (prediction_variance > options.diffuse_variance_threshold) {
      ++skipped_diffuse;
    } else {
      log_likelihood -=
          0.5 * (kLogTwoPi + std::log(prediction_variance) +
                 v_x * v_x / prediction_variance);
      ++effective;
      for (std::size_t a = 0; a < k; ++a) {
        s_wx[a] += v_w[a] * v_x / prediction_variance;
        for (std::size_t b = 0; b < k; ++b) {
          s_ww(a, b) += v_w[a] * v_w[b] / prediction_variance;
        }
      }
    }

    const double gain_x = v_x / prediction_variance;
    ws.filtered = ws.state;
    for (std::size_t i = 0; i < dim; ++i) {
      ws.filtered[i] += pz[i] * gain_x;
    }
    for (std::size_t j = 0; j < k; ++j) {
      const double gain_w = v_w[j] / prediction_variance;
      for (std::size_t i = 0; i < dim; ++i) {
        state_w[j][i] += pz[i] * gain_w;
      }
      ws.transition.TimesVector(state_w[j], &ws.tmp_vector);
      std::swap(state_w[j], ws.tmp_vector);
    }
    ws.filtered_covariance = ws.covariance;
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        ws.filtered_covariance(r, c) -=
            pz[r] * pz[c] / prediction_variance;
      }
    }
    ws.transition.TimesVector(ws.filtered, &ws.state);
    AdvanceCovariance(ws, ws.filtered_covariance);
  }

  base.log_likelihood = log_likelihood;
  base.effective_observations = effective;
  base.skipped_diffuse = skipped_diffuse;
  base.final_state = ws.state;
  base.final_covariance = ws.covariance;

  result.lambdas.assign(k, 0.0);
  result.profiled_log_likelihood = log_likelihood;
  if (k > 0) {
    // Ridge-free solve; singular (collinear regressors / unidentified
    // coefficients) leaves the result unidentified.
    auto solution = la::CholeskySolve(s_ww, s_wx);
    if (solution.ok()) {
      result.identified = true;
      result.lambdas = solution->data();
      // Profiled gain: 0.5 * s_wx' S_ww^-1 s_wx.
      result.profiled_log_likelihood =
          log_likelihood + 0.5 * la::Dot(s_wx, *solution);
    }
  } else {
    result.identified = true;
  }
  return result;
}

Result<SmootherResult> RunSmoother(const StateSpaceModel& model,
                                   const std::vector<double>& observations) {
  KalmanOptions options;
  options.store_states = true;
  MIC_ASSIGN_OR_RETURN(FilterResult filtered,
                       RunFilter(model, observations, options));

  const std::size_t n = observations.size();
  const std::size_t dim = model.state_dim();
  SmootherResult result;
  result.smoothed_states.assign(n, la::Vector(dim));
  result.smoothed_variances.assign(n, la::Vector(dim));

  // Durbin-Koopman backward recursion on (r, N):
  //   r_{t-1} = Z_t v_t / F_t + L_t' r_t
  //   N_{t-1} = Z_t Z_t' / F_t + L_t' N_t L_t
  //   L_t = T (I - K_t Z_t'),  K_t = P_t Z_t / F_t (filter gain form)
  // At missing times: r_{t-1} = T' r_t, N_{t-1} = T' N_t T.
  la::Vector r(dim);
  la::Matrix big_n(dim, dim);
  for (std::size_t ti = n; ti > 0; --ti) {
    const std::size_t t = ti - 1;
    const la::Vector& a = filtered.predicted_states[t];
    const la::Matrix& p = filtered.predicted_covariances[t];

    if (IsMissing(observations[t])) {
      // With no observation, L_t = T: r_{t-1} = T' r_t, then
      // alphahat_t = a_t + P_t r_{t-1}.
      r = model.transition.Transpose() * r;
      big_n = model.transition.Transpose() * big_n * model.transition;
      big_n.Symmetrize();
      result.smoothed_states[t] = a + p * r;
      const la::Matrix pnp = p * big_n * p;
      for (std::size_t i = 0; i < dim; ++i) {
        result.smoothed_variances[t][i] = p(i, i) - pnp(i, i);
      }
      continue;
    }

    const la::Vector z = model.ObservationVector(t);
    const double f = filtered.prediction_variances[t];
    const double v = filtered.innovations[t];

    // L = T - (T P z) z' / F.
    const la::Vector tpz = model.transition * (p * z);
    la::Matrix l = model.transition;
    for (std::size_t row = 0; row < dim; ++row) {
      for (std::size_t col = 0; col < dim; ++col) {
        l(row, col) -= tpz[row] * z[col] / f;
      }
    }

    la::Vector new_r = l.Transpose() * r;
    for (std::size_t i = 0; i < dim; ++i) new_r[i] += z[i] * v / f;
    la::Matrix new_n = l.Transpose() * big_n * l;
    for (std::size_t row = 0; row < dim; ++row) {
      for (std::size_t col = 0; col < dim; ++col) {
        new_n(row, col) += z[row] * z[col] / f;
      }
    }
    new_n.Symmetrize();
    r = std::move(new_r);
    big_n = std::move(new_n);

    la::Vector smoothed = a + p * r;
    result.smoothed_states[t] = smoothed;
    const la::Matrix pnp = p * big_n * p;
    for (std::size_t i = 0; i < dim; ++i) {
      result.smoothed_variances[t][i] = p(i, i) - pnp(i, i);
    }
  }

  return result;
}

Result<ForecastResult> ForecastAhead(const StateSpaceModel& model,
                                     const std::vector<double>& observations,
                                     int horizon) {
  if (horizon <= 0) {
    return Status::InvalidArgument("horizon must be positive");
  }
  // Append `horizon` missing observations: the filter's one-step
  // predictions over that tail are exactly the multi-step forecasts.
  std::vector<double> extended = observations;
  extended.insert(extended.end(), static_cast<std::size_t>(horizon),
                  std::numeric_limits<double>::quiet_NaN());
  MIC_ASSIGN_OR_RETURN(FilterResult filtered, RunFilter(model, extended));

  ForecastResult result;
  result.mean.assign(filtered.predictions.end() - horizon,
                     filtered.predictions.end());
  result.variance.assign(filtered.prediction_variances.end() - horizon,
                         filtered.prediction_variances.end());
  return result;
}

}  // namespace mic::ssm
