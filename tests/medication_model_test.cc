#include "medmodel/medication_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "medmodel/baselines.h"
#include "runtime/thread_pool.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "tests/medication_fixtures.h"

namespace mic::medmodel {
namespace {

TEST(MedicationModelTest, EmLogLikelihoodIsMonotone) {
  auto model = MedicationModel::Fit(DisambiguationMonth());
  ASSERT_TRUE(model.ok());
  const auto& trace = (*model)->fit_stats().log_likelihood_trace;
  ASSERT_GE(trace.size(), 2u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i], trace[i - 1] - 1e-9) << "iteration " << i;
  }
}

TEST(MedicationModelTest, PhiRowsAreDistributions) {
  auto fitted = MedicationModel::Fit(DisambiguationMonth());
  ASSERT_TRUE(fitted.ok());
  const MedicationModel& model = **fitted;
  for (int d = 0; d < 2; ++d) {
    double total = 0.0;
    for (int m = 0; m < 2; ++m) {
      const double phi = model.Phi(DiseaseId(d), MedicineId(m));
      EXPECT_GE(phi, 0.0);
      total += phi;
    }
    EXPECT_NEAR(total, 1.0, 1e-6) << "disease " << d;
  }
}

TEST(MedicationModelTest, EtaMatchesEquationFour) {
  auto fitted = MedicationModel::Fit(DisambiguationMonth());
  ASSERT_TRUE(fitted.ok());
  // Disease 0 mentions: 30 + 10 = 40; disease 1: 30 + 40 = 70.
  EXPECT_NEAR((*fitted)->Eta(DiseaseId(0)), 40.0 / 110.0, 1e-12);
  EXPECT_NEAR((*fitted)->Eta(DiseaseId(1)), 70.0 / 110.0, 1e-12);
  EXPECT_DOUBLE_EQ((*fitted)->Eta(DiseaseId(5)), 0.0);
}

TEST(MedicationModelTest, ThetaMatchesEquationTwo) {
  const MicRecord record = MakeRecord({0, 0, 1}, {0});
  // After Normalize: disease 0 count 2, disease 1 count 1, N_r = 3.
  EXPECT_NEAR(MedicationModel::Theta(record, DiseaseId(0)), 2.0 / 3.0,
              1e-12);
  EXPECT_NEAR(MedicationModel::Theta(record, DiseaseId(1)), 1.0 / 3.0,
              1e-12);
  EXPECT_DOUBLE_EQ(MedicationModel::Theta(record, DiseaseId(9)), 0.0);
}

TEST(MedicationModelTest, ResolvesAmbiguousLinksBetterThanCooccurrence) {
  const MonthlyDataset month = DisambiguationMonth();
  auto proposed = MedicationModel::Fit(month);
  auto baseline = CooccurrenceModel::Fit(month);
  ASSERT_TRUE(proposed.ok());
  ASSERT_TRUE(baseline.ok());

  // Ground truth: medicine 0 belongs to disease 0; medicine 1 to
  // disease 1. The latent model must assign phi(0 -> 0) > phi(0 -> 1)
  // restricted... specifically the depressor mass under hypertension
  // should dominate the analgesic mass under hypertension more strongly
  // than under the cooccurrence baseline.
  const double proposed_ratio =
      (*proposed)->Phi(DiseaseId(0), MedicineId(0)) /
      (*proposed)->Phi(DiseaseId(0), MedicineId(1));
  const double baseline_ratio =
      (*baseline)->Phi(DiseaseId(0), MedicineId(0)) /
      (*baseline)->Phi(DiseaseId(0), MedicineId(1));
  EXPECT_GT(proposed_ratio, baseline_ratio);
  EXPECT_GT(proposed_ratio, 1.0);
}

TEST(MedicationModelTest, PairCountsConserveMedicineMass) {
  const MonthlyDataset month = DisambiguationMonth();
  auto fitted = MedicationModel::Fit(month);
  ASSERT_TRUE(fitted.ok());
  // Sum over diseases of x_dm equals the total mentions of medicine m
  // (each mention distributes responsibility 1 across diseases).
  double total_m0 = 0.0;
  double total_m1 = 0.0;
  (*fitted)->MonthlyPairCounts().ForEach(
      [&](DiseaseId, MedicineId m, double value) {
        if (m == MedicineId(0)) total_m0 += value;
        if (m == MedicineId(1)) total_m1 += value;
      });
  EXPECT_NEAR(total_m0, 40.0, 1e-6);  // 30 ambiguous + 10 pure.
  EXPECT_NEAR(total_m1, 70.0, 1e-6);
}

TEST(MedicationModelTest, PredictiveProbabilitySumsToOneOverMedicines) {
  const MonthlyDataset month = DisambiguationMonth();
  auto fitted = MedicationModel::Fit(month);
  ASSERT_TRUE(fitted.ok());
  const MicRecord record = MakeRecord({0, 1}, {0});
  double total = 0.0;
  for (int m = 0; m < 2; ++m) {
    total += (*fitted)->PredictiveProbability(record, MedicineId(m));
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(MedicationModelTest, RejectsDegenerateInputs) {
  MonthlyDataset empty(0);
  EXPECT_FALSE(MedicationModel::Fit(empty).ok());

  MonthlyDataset no_medicines(0);
  no_medicines.AddRecord(MakeRecord({0}, {}));
  EXPECT_FALSE(MedicationModel::Fit(no_medicines).ok());

  MedicationModelOptions bad;
  bad.max_iterations = 0;
  EXPECT_FALSE(MedicationModel::Fit(DisambiguationMonth(), bad).ok());
  bad.max_iterations = 10;
  bad.phi_smoothing = 1.5;
  EXPECT_FALSE(MedicationModel::Fit(DisambiguationMonth(), bad).ok());
}

TEST(MedicationModelTest, ConvergesOnGeneratedWorldMonth) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(3, 77));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());
  auto fitted = MedicationModel::Fit(data->corpus.month(0));
  ASSERT_TRUE(fitted.ok());
  EXPECT_LT((*fitted)->fit_stats().iterations, 100);
  EXPECT_TRUE(std::isfinite((*fitted)->fit_stats().final_log_likelihood));
}

// Fitting through a 4-thread pool must be bitwise-equal to the inline
// fit: the E step runs fixed 256-record chunks whose outputs are summed
// serially in entry and chunk order, so scheduling can never reorder
// the floating-point sums. The month here is large enough (800 records)
// to span several chunks.
TEST(MedicationModelTest, FourThreadFitIsBitwiseEqualToSerial) {
  MonthlyDataset month(0);
  for (int repeat = 0; repeat < 10; ++repeat) {
    for (int i = 0; i < 30; ++i) month.AddRecord(MakeRecord({0, 1}, {0, 1}));
    for (int i = 0; i < 40; ++i) month.AddRecord(MakeRecord({1}, {1}));
    for (int i = 0; i < 10; ++i) month.AddRecord(MakeRecord({0}, {0}));
  }

  auto serial = MedicationModel::Fit(month);
  ASSERT_TRUE(serial.ok());

  runtime::ThreadPool pool(4);
  ExecContext context;
  context.pool = &pool;
  auto parallel = MedicationModel::Fit(month, MedicationModelOptions{},
                                       /*prior=*/nullptr, context);
  ASSERT_TRUE(parallel.ok());

  // Exact equality throughout — no tolerance.
  EXPECT_EQ((*serial)->fit_stats().iterations,
            (*parallel)->fit_stats().iterations);
  EXPECT_EQ((*serial)->fit_stats().final_log_likelihood,
            (*parallel)->fit_stats().final_log_likelihood);
  EXPECT_EQ((*serial)->fit_stats().log_likelihood_trace,
            (*parallel)->fit_stats().log_likelihood_trace);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ((*serial)->Eta(DiseaseId(d)), (*parallel)->Eta(DiseaseId(d)));
    for (int m = 0; m < 2; ++m) {
      EXPECT_EQ((*serial)->Phi(DiseaseId(d), MedicineId(m)),
                (*parallel)->Phi(DiseaseId(d), MedicineId(m)));
    }
  }
  (*serial)->MonthlyPairCounts().ForEach(
      [&](DiseaseId d, MedicineId m, double value) {
        EXPECT_EQ(value, (*parallel)->MonthlyPairCounts().Get(d, m));
      });
}

// Property: under any smoothing in range, Phi stays a (sub)distribution.
class SmoothingPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SmoothingPropertyTest, PhiStaysNormalized) {
  MedicationModelOptions options;
  options.phi_smoothing = GetParam();
  auto fitted = MedicationModel::Fit(DisambiguationMonth(), options);
  ASSERT_TRUE(fitted.ok());
  double total = 0.0;
  for (int m = 0; m < 2; ++m) {
    total += (*fitted)->Phi(DiseaseId(0), MedicineId(m));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Smoothings, SmoothingPropertyTest,
                         ::testing::Values(0.0, 1e-6, 1e-3, 0.1, 0.5));

}  // namespace
}  // namespace mic::medmodel
