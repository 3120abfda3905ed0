// google-benchmark microbenchmarks of the performance-critical kernels:
// the Kalman filter (the inner loop of every fit), the structural model
// fit, one EM pass of the medication model, ARIMA selection, and claim
// generation throughput.

#include <benchmark/benchmark.h>

#include "arima/arima.h"
#include "common/rng.h"
#include "medmodel/medication_model.h"
#include "ssm/changepoint.h"
#include "ssm/fit.h"
#include "ssm/kalman.h"
#include "synth/generator.h"
#include "synth/scenario.h"

namespace mic {
namespace {

std::vector<double> MakeSeries(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (int t = 0; t < n; ++t) {
    x[t] = 10.0 + 3.0 * std::sin(2.0 * 3.14159265 * t / 12.0) +
           rng.NextGaussian(0.0, 0.5) + (t >= 20 ? 0.4 * (t - 19) : 0.0);
  }
  return x;
}

void BM_KalmanFilterLocalLevel(benchmark::State& state) {
  const auto series = MakeSeries(static_cast<int>(state.range(0)), 1);
  ssm::StructuralSpec spec;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.0});
  for (auto _ : state) {
    auto result = ssm::RunFilter(*model, series);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KalmanFilterLocalLevel)->Arg(43)->Arg(120)->Arg(480);

void BM_KalmanFilterSeasonal(benchmark::State& state) {
  const auto series = MakeSeries(static_cast<int>(state.range(0)), 2);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  for (auto _ : state) {
    auto result = ssm::RunFilter(*model, series);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KalmanFilterSeasonal)->Arg(43)->Arg(120);

void BM_KalmanFilterWithRegression(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto series = MakeSeries(n, 3);
  const auto regressor = ssm::SlopeShiftRegressor(n / 2, n);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  for (auto _ : state) {
    auto result = ssm::RunFilterWithRegression(*model, series, regressor);
    benchmark::DoNotOptimize(result->profiled_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KalmanFilterWithRegression)->Arg(43)->Arg(120);

void BM_KalmanFilterSteadyStateOff(benchmark::State& state) {
  // The same seasonal filter with the steady-state shortcut disabled:
  // the gap to BM_KalmanFilterSeasonal is the shortcut's payoff.
  const auto series = MakeSeries(static_cast<int>(state.range(0)), 2);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  ssm::KalmanOptions options;
  options.allow_steady_state = false;
  for (auto _ : state) {
    auto result = ssm::RunFilter(*model, series, options);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KalmanFilterSteadyStateOff)->Arg(43)->Arg(480);

void BM_KalmanFilterMultiRegressor(benchmark::State& state) {
  const int n = 43;
  const auto series = MakeSeries(n, 3);
  std::vector<std::vector<double>> regressors;
  for (int k = 0; k < state.range(0); ++k) {
    regressors.push_back(ssm::InterventionRegressor(
        {5 + 7 * static_cast<int>(k), ssm::InterventionKind::kSlopeShift},
        n));
  }
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  for (auto _ : state) {
    auto result =
        ssm::RunFilterWithRegressors(*model, series, regressors);
    benchmark::DoNotOptimize(result->profiled_log_likelihood);
  }
}
BENCHMARK(BM_KalmanFilterMultiRegressor)->Arg(1)->Arg(3)->Arg(5);

// The filter entry points at the structural dimensions fits run (1 =
// level, 5 = level + two trig harmonics, 12 = level + dummy seasonal),
// all on compile-time stack storage. Arg is the state dimension; the
// series is the paper's 43 months. The names predate the single filter
// body and are kept so earlier measurements stay comparable.
ssm::StateSpaceModel StructuralModelForDim(int dim) {
  ssm::StructuralSpec spec;
  spec.seasonal = dim > 1;
  if (dim == 5) {
    spec.seasonal_form = ssm::SeasonalForm::kTrigonometric;
    spec.harmonics = 2;
  }
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  return std::move(model).value();
}

constexpr int kPaperMonths = 43;

void BM_KalmanKernelFilter(benchmark::State& state) {
  const auto series = MakeSeries(kPaperMonths, 2);
  const auto model = StructuralModelForDim(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = ssm::RunFilter(model, series);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * kPaperMonths);
}
BENCHMARK(BM_KalmanKernelFilter)->Arg(1)->Arg(5)->Arg(12);

void BM_KalmanKernelRegression(benchmark::State& state) {
  const auto series = MakeSeries(kPaperMonths, 3);
  const auto regressor =
      ssm::SlopeShiftRegressor(kPaperMonths / 2, kPaperMonths);
  const auto model = StructuralModelForDim(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = ssm::RunFilterWithRegression(model, series, regressor);
    benchmark::DoNotOptimize(result->profiled_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * kPaperMonths);
}
BENCHMARK(BM_KalmanKernelRegression)->Arg(1)->Arg(5)->Arg(12);

void BM_KalmanKernelRegressors(benchmark::State& state) {
  // Two interventions, as in a multi-break fit.
  const auto series = MakeSeries(kPaperMonths, 3);
  const std::vector<std::vector<double>> regressors = {
      ssm::InterventionRegressor({12, ssm::InterventionKind::kSlopeShift},
                                 kPaperMonths),
      ssm::InterventionRegressor({26, ssm::InterventionKind::kLevelShift},
                                 kPaperMonths)};
  const auto model = StructuralModelForDim(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = ssm::RunFilterWithRegressors(model, series, regressors);
    benchmark::DoNotOptimize(result->profiled_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * kPaperMonths);
}
BENCHMARK(BM_KalmanKernelRegressors)->Arg(1)->Arg(5)->Arg(12);

void BM_StructuralFitSeasonal(benchmark::State& state) {
  const auto series = MakeSeries(43, 4);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  for (auto _ : state) {
    auto fitted = ssm::FitStructuralModel(series, spec);
    benchmark::DoNotOptimize(fitted->aic);
  }
}
BENCHMARK(BM_StructuralFitSeasonal);

void BM_ChangePointExact(benchmark::State& state) {
  const auto series = MakeSeries(43, 5);
  ssm::ChangePointOptions options;
  options.seasonal = true;
  options.fit.optimizer.max_evaluations = 160;
  for (auto _ : state) {
    ssm::ChangePointDetector detector(series, options);
    auto result = detector.DetectExact();
    benchmark::DoNotOptimize(result->best_aic);
  }
}
BENCHMARK(BM_ChangePointExact)->Unit(benchmark::kMillisecond);

void BM_ChangePointApproximate(benchmark::State& state) {
  const auto series = MakeSeries(43, 5);
  ssm::ChangePointOptions options;
  options.seasonal = true;
  options.fit.optimizer.max_evaluations = 160;
  for (auto _ : state) {
    ssm::ChangePointDetector detector(series, options);
    auto result = detector.DetectApproximate();
    benchmark::DoNotOptimize(result->best_aic);
  }
}
BENCHMARK(BM_ChangePointApproximate)->Unit(benchmark::kMillisecond);

void BM_ArimaSelect(benchmark::State& state) {
  const auto series = MakeSeries(43, 6);
  for (auto _ : state) {
    auto fitted = arima::SelectArima(series);
    benchmark::DoNotOptimize(fitted->aic);
  }
}
BENCHMARK(BM_ArimaSelect)->Unit(benchmark::kMillisecond);

void BM_MedicationModelFit(benchmark::State& state) {
  auto world = synth::World::Create(
      synth::MakeTinyWorldConfig(3, 99));
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  const MonthlyDataset& month = data->corpus.month(0);
  for (auto _ : state) {
    auto model = medmodel::MedicationModel::Fit(month);
    benchmark::DoNotOptimize((*model)->fit_stats().final_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * month.size());
}
BENCHMARK(BM_MedicationModelFit)->Unit(benchmark::kMillisecond);

// Month 0 of the default 2,000-patient world (1,518 records, 58
// diseases, 84 medicines): the scale of the em_reproduce workload.
void BM_MedicationModelFitDefaultWorld(benchmark::State& state) {
  auto world = synth::MakePaperWorld();
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  const MonthlyDataset& month = data->corpus.month(0);
  for (auto _ : state) {
    auto model = medmodel::MedicationModel::Fit(month);
    benchmark::DoNotOptimize((*model)->fit_stats().final_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * month.size());
}
BENCHMARK(BM_MedicationModelFitDefaultWorld)->Unit(benchmark::kMillisecond);

void BM_ClaimGeneration(benchmark::State& state) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(12, 7));
  synth::ClaimGenerator generator(&*world);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto data = generator.Generate(seed++);
    benchmark::DoNotOptimize(data->corpus.TotalRecords());
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_ClaimGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mic

BENCHMARK_MAIN();
