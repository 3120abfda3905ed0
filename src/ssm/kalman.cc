#include "ssm/kalman.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>

namespace mic::ssm {
namespace {

constexpr double kLogTwoPi = 1.8378770664093453;

bool IsMissing(double x) { return std::isnan(x); }

// The thread's heap buffers, sized for a pass at `dim` (resizing reuses
// their allocations).
KalmanBuffers<0>& BorrowHeap(KalmanWorkspace& ws, std::size_t dim) {
  ++ws.acquires;
  KalmanBuffers<0>& b = ws.heap;
  for (auto* v : {&b.z, &b.a, &b.pz, &b.steady_pz, &b.tmp}) v->resize(dim);
  for (auto* m :
       {&b.p, &b.filtered_p, &b.tmp_p, &b.next_p, &b.rqr, &b.t_values}) {
    m->resize(dim * dim);
  }
  b.t_row_begin.resize(dim + 1);
  b.t_cols.resize(dim * dim);
  return b;
}

// Loop bound of a pass: the compile-time dimension, or the runtime one
// at Dim == 0.
template <std::size_t Dim>
std::size_t Bound(std::size_t dim) {
  return Dim > 0 ? Dim : dim;
}

// The products of a pass, over flat row-major buffers, follow. Outputs
// are __restrict (no output overlaps an input), which keeps the loops
// free of run-time overlap checks and library copy calls. T enters
// through its sparse rows (KalmanBuffers::t_row_begin, t_cols,
// t_values).
struct SparseRows {
  const std::uint32_t* row_begin;
  const std::uint32_t* cols;
  const double* values;
};

template <std::size_t Dim>
double Dot(std::size_t dim, const double* u, const double* v) {
  double total = 0.0;
  for (std::size_t i = 0; i < Bound<Dim>(dim); ++i) total += u[i] * v[i];
  return total;
}

// out <- m z.
template <std::size_t Dim>
void TimesZ(std::size_t dim, const double* m, const double* z,
            double* __restrict out) {
  const std::size_t n = Bound<Dim>(dim);
  for (std::size_t r = 0; r < n; ++r) out[r] = Dot<Dim>(n, m + r * n, z);
}

// out <- T v.
template <std::size_t Dim>
void TransitionTimesVector(const SparseRows& t, std::size_t dim,
                           const double* v, double* __restrict out) {
  for (std::size_t r = 0; r < Bound<Dim>(dim); ++r) {
    double total = 0.0;
    for (std::size_t i = t.row_begin[r]; i < t.row_begin[r + 1]; ++i) {
      total += t.values[i] * v[t.cols[i]];
    }
    out[r] = total;
  }
}

// next <- T source T' + RQR', symmetrized. T·source accumulates row by
// row into `tp`; (T·source)·T' one output column at a time.
template <std::size_t Dim>
void PredictCovariance(const SparseRows& t, std::size_t dim,
                       const double* rqr, const double* source,
                       double* __restrict tp, double* __restrict heap_column,
                       double* __restrict next) {
  const std::size_t n = Bound<Dim>(dim);
  std::fill_n(tp, n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = t.row_begin[r]; i < t.row_begin[r + 1]; ++i) {
      const double t_rk = t.values[i];
      const double* source_k = source + t.cols[i] * n;
      for (std::size_t c = 0; c < n; ++c) tp[r * n + c] += t_rk * source_k[c];
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    // One output column's running sums: a local array at compiled
    // dimensions, so they can stay in registers; `heap_column` at
    // Dim == 0.
    std::array<double, Dim> local_column{};
    double* column = Dim > 0 ? local_column.data() : heap_column;
    if constexpr (Dim == 0) std::fill_n(column, n, 0.0);
    for (std::size_t i = t.row_begin[c]; i < t.row_begin[c + 1]; ++i) {
      const double t_ck = t.values[i];
      const double* tp_k = tp + t.cols[i];
      for (std::size_t r = 0; r < n; ++r) column[r] += tp_k[r * n] * t_ck;
    }
    for (std::size_t r = 0; r < n; ++r) next[r * n + c] = column[r];
  }
  for (std::size_t i = 0; i < n * n; ++i) next[i] += rqr[i];
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (next[r * n + c] + next[c * n + r]);
      next[r * n + c] = avg;
      next[c * n + r] = avg;
    }
  }
}

// The filter's state a_{t|t-1}, P_{t|t-1} with the pass constants (sparse
// T, RQR') and the per-step scratch, over KalmanBuffers<Dim>. Dim > 0
// fixes every loop bound at compile time; Dim == 0 reads the dimension
// from the model. Each product accumulates in one fixed order, the same
// at either storage.
template <std::size_t Dim>
class KalmanState {
 public:
  KalmanState(const StateSpaceModel& model, KalmanWorkspace& ws)
      : dim_(model.state_dim()) {
    if constexpr (Dim == 0) heap_ = &BorrowHeap(ws, dim_);
    const std::size_t dim = this->dim();
    // RQR' through the la:: products, so its bits match theirs.
    la::MultiplyInto(model.selection, model.state_noise, &ws.rq);
    la::TransposeInto(model.selection, &ws.selection_t);
    la::MultiplyInto(ws.rq, ws.selection_t, &ws.rqr);
    std::uint32_t nonzeros = 0;
    b().t_row_begin[0] = 0;
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        b().rqr[r * dim + c] = ws.rqr(r, c);
        b().p[r * dim + c] = model.initial_covariance(r, c);
        const double t_rc = model.transition(r, c);
        if (t_rc == 0.0) continue;
        b().t_cols[nonzeros] = static_cast<std::uint32_t>(c);
        b().t_values[nonzeros] = t_rc;
        ++nonzeros;
      }
      b().t_row_begin[r + 1] = nonzeros;
      b().a[r] = model.initial_state[r];
      b().z[r] = model.observation[r];
    }
  }

  std::size_t dim() const { return Bound<Dim>(dim_); }

  // z <- Z_t; only time-varying entries move between steps.
  void Observe(const StateSpaceModel& model, std::size_t t) {
    if (model.time_varying.empty()) return;
    for (std::size_t i = 0; i < dim(); ++i) b().z[i] = model.observation[i];
    for (const TimeVaryingObservation& entry : model.time_varying) {
      if (t < entry.values.size()) b().z[entry.state_index] = entry.values[t];
    }
  }

  // z'v.
  double ZDot(const double* v) const { return Dot<Dim>(dim_, z(), v); }

  // pz <- P z, or steady_pz <- next_P z when the recursion has settled.
  void ComputePz() { TimesZ<Dim>(dim_, p(), z(), b().pz.data()); }
  void ComputeSteadyPz() {
    TimesZ<Dim>(dim_, b().next_p.data(), z(), b().steady_pz.data());
  }

  // Measurement then time update of a mean: v <- T (v + pz * gain).
  void UpdateMean(double* __restrict v, const double* pz, double gain) {
    for (std::size_t i = 0; i < dim(); ++i) v[i] += pz[i] * gain;
    AdvanceMean(v);
  }

  // Time update of a mean alone (missing month): v <- T v.
  void AdvanceMean(double* __restrict v) {
    double* tv = b().tmp.data();
    TransitionTimesVector<Dim>(Transition(), dim_, v, tv);
    for (std::size_t i = 0; i < dim(); ++i) v[i] = tv[i];
  }

  // Measurement update of the covariance: filtered_p <- P - pz pz' / f.
  void UpdateCovariance(double f) {
    Downdate(b().p.data(), b().pz.data(), f, b().filtered_p.data());
  }

  // Time update of the covariance: next_p <- T P T' + RQR' from the
  // filtered P, or (`missing`) from P itself.
  void PredictCovariance(bool missing) {
    ssm::PredictCovariance<Dim>(
        Transition(), dim_, b().rqr.data(),
        missing ? b().p.data() : b().filtered_p.data(), b().tmp_p.data(),
        b().tmp.data(), b().next_p.data());
  }

  // Whether max|next_p - P| is within `tolerance` of max|P|.
  bool Converged(double tolerance) const {
    double max_change = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < dim() * dim(); ++i) {
      max_change = std::max(max_change, std::fabs(b().next_p[i] - b().p[i]));
      scale = std::max(scale, std::fabs(b().p[i]));
    }
    return max_change <= tolerance * std::max(scale, 1e-300);
  }

  // P <- next_p.
  void AcceptCovariance() {
    if constexpr (Dim > 0) {
      b().p = b().next_p;
    } else {
      std::swap(b().p, b().next_p);
    }
  }

  la::Vector StateVector() const {
    return la::Vector(std::vector<double>(a(), a() + dim()));
  }

  la::Matrix CovarianceMatrix() const {
    la::Matrix out(dim(), dim());
    std::copy_n(p(), dim() * dim(), &out(0, 0));
    return out;
  }

  double* a() { return b().a.data(); }
  const double* a() const { return b().a.data(); }
  const double* z() const { return b().z.data(); }
  const double* p() const { return b().p.data(); }
  const double* pz() const { return b().pz.data(); }
  const double* steady_pz() const { return b().steady_pz.data(); }

 private:
  void Downdate(const double* p, const double* pz, double f,
                double* __restrict out) const {
    const std::size_t dim = this->dim();
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        out[r * dim + c] = p[r * dim + c] - pz[r] * pz[c] / f;
      }
    }
  }

  SparseRows Transition() const {
    return {b().t_row_begin.data(), b().t_cols.data(), b().t_values.data()};
  }

  // Compiled dimensions name the stack buffers directly.
  KalmanBuffers<Dim>& b() {
    if constexpr (Dim > 0) {
      return own_;
    } else {
      return *heap_;
    }
  }
  const KalmanBuffers<Dim>& b() const {
    return const_cast<KalmanState*>(this)->b();
  }

  // The stack buffers at compiled dimensions (empty at Dim == 0), and
  // the workspace's at Dim == 0.
  KalmanBuffers<Dim> own_{};
  KalmanBuffers<0>* heap_ = nullptr;
  std::size_t dim_;
};

// The one filter pass behind RunFilter, RunFilterWithRegression and
// RunFilterWithRegressors. The K regressor series w_k share the gain
// sequence of x: only their state means differ, and their innovations
// feed the GLS sums ws.s_ww (K x K, row-major) and ws.s_wx (K) on the
// likelihood terms x uses. The steady-state shortcut applies only when
// K = 0.
template <std::size_t Dim>
Status FilterPass(const StateSpaceModel& model,
                  const std::vector<double>& observations,
                  std::span<const std::vector<double>> w,
                  const KalmanOptions& options, KalmanWorkspace& ws,
                  FilterResult& result) {
  const std::size_t n = observations.size();
  const std::size_t k = w.size();
  KalmanState<Dim> state(model, ws);
  const std::size_t dim = state.dim();

  result.predictions.resize(n);
  result.prediction_variances.resize(n);
  result.innovations.resize(n);
  if (options.store_states) {
    result.predicted_states.reserve(n);
    result.predicted_covariances.reserve(n);
  }
  ws.regressor_means.assign(k * dim, 0.0);
  ws.regressor_innovations.assign(k, 0.0);
  ws.s_ww.assign(k * k, 0.0);
  ws.s_wx.assign(k, 0.0);
  double* means_w = ws.regressor_means.data();
  double* v_w = ws.regressor_innovations.data();

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
  const bool may_go_steady = k == 0 && options.allow_steady_state &&
                             model.time_varying.empty() &&
                             !options.store_states && n >= dim * dim + 20;
  bool steady = false;
  double steady_variance = 0.0;

  for (std::size_t t = 0; t < n; ++t) {
    state.Observe(model, t);
    if (options.store_states) {
      result.predicted_states.push_back(state.StateVector());
      result.predicted_covariances.push_back(state.CovarianceMatrix());
    }

    if (!steady) state.ComputePz();
    const double* pz = steady ? state.steady_pz() : state.pz();
    const double prediction = state.ZDot(state.a());
    const double prediction_variance =
        steady ? steady_variance : state.ZDot(pz) + model.observation_variance;
    result.predictions[t] = prediction;
    result.prediction_variances[t] = prediction_variance;

    const double x = observations[t];
    const bool missing = IsMissing(x);
    if (missing) {
      result.innovations[t] = std::numeric_limits<double>::quiet_NaN();
      // No update; just predict forward. A gap invalidates the steady
      // state (the covariance grows through it).
      state.AdvanceMean(state.a());
      for (std::size_t j = 0; j < k; ++j) state.AdvanceMean(means_w + j * dim);
      steady = false;
    } else {
      if (!(prediction_variance > 0.0) ||
          !std::isfinite(prediction_variance)) {
        return Status::NumericError(
            "non-positive prediction variance at t=" + std::to_string(t));
      }

      const double innovation = x - prediction;
      result.innovations[t] = innovation;
      for (std::size_t j = 0; j < k; ++j) {
        v_w[j] = w[j][t] - state.ZDot(means_w + j * dim);
      }

      if (prediction_variance > options.diffuse_variance_threshold) {
        ++skipped_diffuse;
      } else {
        log_likelihood -=
            0.5 * (kLogTwoPi + std::log(prediction_variance) +
                   innovation * innovation / prediction_variance);
        ++effective;
        for (std::size_t i = 0; i < k; ++i) {
          ws.s_wx[i] += v_w[i] * innovation / prediction_variance;
          for (std::size_t j = 0; j < k; ++j) {
            ws.s_ww[i * k + j] += v_w[i] * v_w[j] / prediction_variance;
          }
        }
      }

      // Measurement update then time update.
      state.UpdateMean(state.a(), pz, innovation / prediction_variance);
      for (std::size_t j = 0; j < k; ++j) {
        state.UpdateMean(means_w + j * dim, pz, v_w[j] / prediction_variance);
      }
      if (steady) continue;  // Covariance frozen.
      state.UpdateCovariance(prediction_variance);
    }

    state.PredictCovariance(missing);
    if (!missing && may_go_steady &&
        state.Converged(options.steady_state_tolerance)) {
      steady = true;
      state.ComputeSteadyPz();
      steady_variance =
          state.ZDot(state.steady_pz()) + model.observation_variance;
    }
    state.AcceptCovariance();
  }

  result.log_likelihood = log_likelihood;
  result.effective_observations = effective;
  result.skipped_diffuse = skipped_diffuse;
  result.final_state = state.StateVector();
  result.final_covariance = state.CovarianceMatrix();
  return Status::OK();
}

// Validates and runs the pass on the storage of the model's dimension.
Status RunPass(const StateSpaceModel& model,
               const std::vector<double>& observations,
               std::span<const std::vector<double>> regressors,
               const KalmanOptions& options, KalmanWorkspace& ws,
               FilterResult& result) {
  for (const auto& regressor : regressors) {
    if (regressor.size() < observations.size()) {
      return Status::InvalidArgument(
          "regressor shorter than the observations");
    }
  }
  MIC_RETURN_IF_ERROR(model.Validate());
  switch (model.state_dim()) {
    case 1:
      return FilterPass<1>(model, observations, regressors, options, ws,
                             result);
    case 5:
      return FilterPass<5>(model, observations, regressors, options, ws,
                             result);
    case 12:
      return FilterPass<12>(model, observations, regressors, options, ws,
                             result);
    default:
      return FilterPass<0>(model, observations, regressors, options, ws,
                             result);
  }
}

}  // namespace

KalmanWorkspace& KalmanWorkspace::ThreadLocal() {
  static thread_local KalmanWorkspace workspace;
  return workspace;
}

Result<FilterResult> RunFilter(const StateSpaceModel& model,
                               const std::vector<double>& observations,
                               const KalmanOptions& options) {
  FilterResult result;
  MIC_RETURN_IF_ERROR(RunPass(model, observations, {}, options,
                              KalmanWorkspace::ThreadLocal(), result));
  return result;
}

Result<RegressionFilterResult> RunFilterWithRegression(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options) {
  KalmanWorkspace& ws = KalmanWorkspace::ThreadLocal();
  RegressionFilterResult result;
  MIC_RETURN_IF_ERROR(RunPass(model, observations, {&regressor, 1}, options,
                              ws, result.base));
  const double s_ww = ws.s_ww[0];
  const double s_wx = ws.s_wx[0];
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
  KalmanWorkspace& ws = KalmanWorkspace::ThreadLocal();
  MultiRegressionFilterResult result;
  MIC_RETURN_IF_ERROR(
      RunPass(model, observations, regressors, options, ws, result.base));
  const std::size_t k = regressors.size();
  const double log_likelihood = result.base.log_likelihood;
  result.lambdas.assign(k, 0.0);
  result.profiled_log_likelihood = log_likelihood;
  if (k > 0) {
    la::Matrix s_ww(k, k);
    std::copy(ws.s_ww.begin(), ws.s_ww.end(), &s_ww(0, 0));
    const la::Vector s_wx(ws.s_wx);
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
