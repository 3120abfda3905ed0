// Kalman filter, Durbin-Koopman disturbance smoother, and forecasting
// for the univariate-observation linear Gaussian model of model.h.
//
// Missing observations (NaN) are supported: the filter skips the update
// step and the likelihood contribution at those times, which is also how
// out-of-sample forecasting is implemented.

#ifndef MICTREND_SSM_KALMAN_H_
#define MICTREND_SSM_KALMAN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "la/matrix.h"
#include "ssm/model.h"

namespace mic::ssm {

/// Which filter implementation a fit runs on. The dynamic path works
/// for any state dimension; the fixed path (kalman_fixed.h) is a
/// compile-time specialization for the structural model's small fixed
/// dimensions (flat stack arrays, no heap) that is bit-exact with the
/// dynamic path. kAuto picks fixed whenever the model's dimension has a
/// compiled kernel.
enum class KalmanKernel : int {
  kAuto = 0,
  kDynamic = 1,
  kFixed = 2,
};

std::string_view KalmanKernelName(KalmanKernel kernel);

/// Output of one filtering pass.
struct FilterResult {
  /// Gaussian log-likelihood excluding diffuse prediction errors: terms
  /// whose variance F_t still carries the big-kappa initialization (the
  /// state observed at t was not yet identified) are dropped, the
  /// standard big-kappa approximation to the exact diffuse likelihood.
  /// This also covers the intervention coefficient, which only becomes
  /// identified at the change point itself.
  double log_likelihood = 0.0;
  /// Non-missing observations contributing to the likelihood.
  int effective_observations = 0;
  /// Prediction errors dropped as diffuse.
  int skipped_diffuse = 0;

  /// One-step-ahead predictions E[x_t | x_{1..t-1}] and variances F_t.
  std::vector<double> predictions;
  std::vector<double> prediction_variances;
  /// Innovations v_t (NaN at missing times).
  std::vector<double> innovations;

  // Stored only when KalmanOptions::store_states is set.
  std::vector<la::Vector> predicted_states;       // a_{t|t-1}
  std::vector<la::Matrix> predicted_covariances;  // P_{t|t-1}
  /// State mean/covariance after the final time step (a_{n+1|n}), the
  /// starting point for forecasting.
  la::Vector final_state;
  la::Matrix final_covariance;
};

/// Nonzeros of a transition matrix T, row by row, each row in
/// increasing column order (compressed sparse rows). Every filter body
/// forms T·a, T·P and (T·P)·T' from this table instead of dense loops
/// over all dim^2 entries; the dummy-seasonal T has 22 nonzeros out of
/// 144. The products are bit-identical to their dense forms: for finite
/// operands a skipped exact-zero term leaves the running sum unchanged
/// (the sum starts at +0.0 and can never become -0.0, so adding a
/// signed zero is a no-op), and the remaining terms accumulate in the
/// same increasing-column order.
class SparseTransition {
 public:
  /// Rebuilds the table from a square T, reusing the buffers.
  void Assign(const la::Matrix& transition);

  /// out <- T v.
  void TimesVector(const la::Vector& v, la::Vector* out) const;
  /// out <- T m.
  void TimesMatrix(const la::Matrix& m, la::Matrix* out) const;
  /// out <- m T'.
  void MatrixTimesTranspose(const la::Matrix& m, la::Matrix* out) const;

 private:
  std::vector<std::size_t> row_begin_;  // dim + 1 offsets into cols_/values_
  std::vector<std::size_t> cols_;
  std::vector<double> values_;
};

/// Per-thread scratch buffers for the filter hot loops. A filter pass
/// over a dim-d state touches ~6 d x d temporaries per step; borrowing
/// them from a thread_local workspace instead of allocating turns the
/// steady-state cost into pure arithmetic. All in-place kernels used
/// with these buffers preserve the operator form's accumulation order,
/// so workspace reuse never changes a bit of any filter output.
///
/// The filter functions borrow the workspace internally — callers never
/// pass one. ThreadLocal() is exposed for tests and for the `acquires`
/// pass counter.
class KalmanWorkspace {
 public:
  /// This thread's workspace (created on first use).
  static KalmanWorkspace& ThreadLocal();

  /// Filter passes that borrowed this workspace (test hook).
  std::uint64_t acquires = 0;

  // Scratch buffers (internal to the filter implementations).
  la::Vector z, pz, steady_pz, state, state_aux, filtered, filtered_aux,
      tmp_vector;
  SparseTransition transition;
  la::Matrix rqr, covariance, filtered_covariance, next_covariance,
      tmp_matrix, tmp_matrix2;
};

struct KalmanOptions {
  /// Store per-step predicted states (needed by the smoother).
  bool store_states = false;
  /// Prediction errors with F_t above this are treated as diffuse and
  /// excluded from the likelihood. Series should be scaled well below
  /// this (the trend pipeline normalizes by the sample SD).
  double diffuse_variance_threshold = kDiffuseKappa * 1e-4;
  /// For time-invariant models (no time-varying Z) the covariance
  /// recursion converges to a steady state; once the predicted
  /// covariance stops changing the filter freezes it and skips the
  /// O(n^3) covariance updates. Exact to within the tolerance below.
  bool allow_steady_state = true;
  /// Relative max-abs change of P under which it is declared steady.
  double steady_state_tolerance = 1e-12;
};

/// Runs the Kalman filter over `observations`. Fails on invalid model
/// dimensions or a non-positive prediction variance.
Result<FilterResult> RunFilter(const StateSpaceModel& model,
                               const std::vector<double>& observations,
                               const KalmanOptions& options = {});

/// Filter pass with a deterministic regressor profiled out by GLS in
/// innovation space (augmented Kalman filter): for the observation
/// equation x_t = signal_t + lambda * w_t + eps_t, the regressor series
/// w is passed through the same filter gains, and
///   lambda_hat = sum(v_w v_x / F) / sum(v_w^2 / F)
/// maximizes the likelihood. Every likelihood term used is shared with
/// the plain filter, which keeps AIC comparisons against the
/// no-regressor model exact (no dropped-term asymmetry).
struct RegressionFilterResult {
  /// Plain filter output on x (log-likelihood without the regressor).
  FilterResult base;
  /// GLS estimate of the regression coefficient (0 if unidentified).
  double lambda = 0.0;
  /// Sampling variance of lambda_hat given the model variances
  /// (infinity when unidentified).
  double lambda_variance = 0.0;
  /// max_lambda log-likelihood.
  double profiled_log_likelihood = 0.0;
  /// Whether the regressor was identifiable from the usable terms.
  bool identified = false;
};

Result<RegressionFilterResult> RunFilterWithRegression(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options = {});

/// Multi-regressor generalization: x_t = signal_t + sum_k lambda_k
/// w_kt + eps_t. The coefficient vector solves the GLS normal equations
/// in innovation space; all regressors share the single covariance
/// recursion, so the cost grows only by O(K n) state-mean updates.
struct MultiRegressionFilterResult {
  FilterResult base;
  /// GLS estimates (size K).
  std::vector<double> lambdas;
  /// max_lambda log-likelihood.
  double profiled_log_likelihood = 0.0;
  /// Whether the normal equations were solvable (full column rank).
  bool identified = false;
};

Result<MultiRegressionFilterResult> RunFilterWithRegressors(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options = {});

/// Output of the smoothing pass: E[a_t | all observations].
struct SmootherResult {
  std::vector<la::Vector> smoothed_states;
  /// Smoothed state variances (diagonals of V_t).
  std::vector<la::Vector> smoothed_variances;
};

/// Durbin-Koopman backward smoother; runs the filter internally.
Result<SmootherResult> RunSmoother(const StateSpaceModel& model,
                                   const std::vector<double>& observations);

/// Point forecasts with variances for `horizon` steps past the end of
/// `observations`. Time-varying Z entries must extend at least
/// observations.size() + horizon steps (the structural builder arranges
/// this for the intervention regressor).
struct ForecastResult {
  std::vector<double> mean;
  std::vector<double> variance;
};

Result<ForecastResult> ForecastAhead(const StateSpaceModel& model,
                                     const std::vector<double>& observations,
                                     int horizon);

}  // namespace mic::ssm

#endif  // MICTREND_SSM_KALMAN_H_
