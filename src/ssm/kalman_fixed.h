// Compile-time fixed-dimension Kalman kernels for the structural
// model's small state vectors (level = 1, level + trig seasonal = 5,
// level + 11 dummy seasonal states = 12 at the paper's monthly period).
//
// Each kernel is a twin of the dynamic implementation in kalman.cc: the
// per-step temporaries live in flat stack arrays sized by the template
// parameter instead of heap-backed la:: objects, the loop bounds are
// compile-time constants, and every inner loop replicates the dynamic
// path's floating-point accumulation order exactly (including the sparse
// transition products of SparseTransition and the Symmetrize averaging),
// so the two paths produce bit-identical FilterResults. The win is pure
// overhead removal on the Table V hot path: no buffer Resize/re-zeroing
// per kernel call, no virtual-size indirection, and loop bodies the
// compiler can fully unroll.
//
// Selection happens through KalmanKernel (kalman.h): the Run*Kernel
// dispatchers below resolve kAuto to the fixed path whenever the
// model's state dimension has a compiled kernel and fall back to the
// dynamic path otherwise; kFixed demands a compiled kernel and fails
// loudly when the dimension has none.

#ifndef MICTREND_SSM_KALMAN_FIXED_H_
#define MICTREND_SSM_KALMAN_FIXED_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "ssm/kalman.h"
#include "ssm/model.h"

namespace mic::ssm {

/// True when a compile-time kernel exists for this state dimension.
bool HasFixedKernel(std::size_t state_dim);

/// Fixed-dimension twin of RunFilter. Fails with InvalidArgument when
/// the model's state dimension has no compiled kernel.
Result<FilterResult> RunFilterFixed(const StateSpaceModel& model,
                                    const std::vector<double>& observations,
                                    const KalmanOptions& options = {});

/// Fixed-dimension twin of RunFilterWithRegression.
Result<RegressionFilterResult> RunFilterWithRegressionFixed(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options = {});

/// Fixed-dimension twin of RunFilterWithRegressors.
Result<MultiRegressionFilterResult> RunFilterWithRegressorsFixed(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options = {});

/// Resolves a kernel choice for one model: kAuto picks the fixed path
/// exactly when HasFixedKernel(model.state_dim()).
bool ResolveToFixedKernel(KalmanKernel kernel, const StateSpaceModel& model);

/// Kernel-dispatching entry points: run the fixed or dynamic filter
/// according to `kernel` (bit-identical either way).
Result<FilterResult> RunFilterKernel(KalmanKernel kernel,
                                     const StateSpaceModel& model,
                                     const std::vector<double>& observations,
                                     const KalmanOptions& options = {});

Result<RegressionFilterResult> RunFilterWithRegressionKernel(
    KalmanKernel kernel, const StateSpaceModel& model,
    const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options = {});

Result<MultiRegressionFilterResult> RunFilterWithRegressorsKernel(
    KalmanKernel kernel, const StateSpaceModel& model,
    const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options = {});

/// Dimension-in-the-type face of the fixed kernels for callers that
/// statically know their state dimension (e.g. FixedKalman<12> for the
/// paper's level + period-12 dummy seasonal model). Forwards to the
/// same compiled kernels as the Run*Fixed free functions after checking
/// the model against StateDim.
template <int StateDim>
struct FixedKalman {
  static constexpr int kStateDim = StateDim;

  /// Whether this dimension has a compiled kernel.
  static bool Supported() {
    return HasFixedKernel(static_cast<std::size_t>(StateDim));
  }

  static Result<FilterResult> Run(const StateSpaceModel& model,
                                  const std::vector<double>& observations,
                                  const KalmanOptions& options = {}) {
    MIC_RETURN_IF_ERROR(CheckDim(model));
    return RunFilterFixed(model, observations, options);
  }

  static Result<RegressionFilterResult> RunWithRegression(
      const StateSpaceModel& model, const std::vector<double>& observations,
      const std::vector<double>& regressor,
      const KalmanOptions& options = {}) {
    MIC_RETURN_IF_ERROR(CheckDim(model));
    return RunFilterWithRegressionFixed(model, observations, regressor,
                                        options);
  }

  static Result<MultiRegressionFilterResult> RunWithRegressors(
      const StateSpaceModel& model, const std::vector<double>& observations,
      const std::vector<std::vector<double>>& regressors,
      const KalmanOptions& options = {}) {
    MIC_RETURN_IF_ERROR(CheckDim(model));
    return RunFilterWithRegressorsFixed(model, observations, regressors,
                                        options);
  }

 private:
  static Status CheckDim(const StateSpaceModel& model) {
    if (model.state_dim() != static_cast<std::size_t>(StateDim)) {
      return Status::InvalidArgument(
          "FixedKalman<" + std::to_string(StateDim) +
          "> given a model of state dimension " +
          std::to_string(model.state_dim()));
    }
    return Status::OK();
  }
};

}  // namespace mic::ssm

#endif  // MICTREND_SSM_KALMAN_FIXED_H_
