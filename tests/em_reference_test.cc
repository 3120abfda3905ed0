// Hash-map reference contract of the EM fit. MedicationModel::Fit runs
// Eqs. 5-7 over flat arrays indexed by the month's (disease, medicine)
// support; this test carries the plain form of the same algorithm, with
// each φ row a sparse map from medicine to probability, and requires the
// fit to match it: the same iteration count, and the log-likelihood
// trace, φ and the pair counts of Eq. 7 within 1e-12 relative. The two
// sum in different orders, so last bits may differ.
//
// Covered: the DisambiguationMonth fixture and one generated month of
// the default world (over 1,000 records, so several 256-record E-step
// chunks, plus one record with more than 64 disease mentions), each
// fitted cold, warm-started from a previous month and under the
// temporal prior.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "medmodel/medication_model.h"
#include "medmodel/pair_counts.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "tests/medication_fixtures.h"

namespace mic::medmodel {
namespace {

constexpr double kRelativeTolerance = 1e-12;

// --- Hash-map reference EM. --------------------------------------------

using Row = std::unordered_map<std::uint32_t, double>;  // medicine -> value
using Rows = std::unordered_map<std::uint32_t, Row>;    // disease -> row

struct ReferenceFit {
  int iterations = 0;
  std::vector<double> log_likelihood_trace;
  Rows phi;  // unsmoothed
  double smoothing_floor = 0.0;
  std::unordered_map<std::uint64_t, double> pair_counts;
};

void NormalizeRow(Row& row) {
  double total = 0.0;
  for (const auto& [m, value] : row) total += value;
  if (total > 0.0) {
    for (auto& [m, value] : row) value /= total;
  }
}

double Theta(const MicRecord& record, std::uint32_t count) {
  return static_cast<double>(count) /
         static_cast<double>(record.TotalDiseaseMentions());
}

// Σ_d θ_rd φ_dm over the record's diseases (0 where φ has no entry).
double Denominator(const Rows& phi, const MicRecord& record, MedicineId m) {
  double denominator = 0.0;
  for (const auto& disease : record.diseases) {
    auto row = phi.find(disease.id.value());
    if (row == phi.end()) continue;
    auto it = row->second.find(m.value());
    if (it != row->second.end()) {
      denominator += Theta(record, disease.count) * it->second;
    }
  }
  return denominator;
}

double PhiOrZero(const Rows& phi, DiseaseId d, MedicineId m) {
  auto row = phi.find(d.value());
  if (row == phi.end()) return 0.0;
  auto it = row->second.find(m.value());
  return it == row->second.end() ? 0.0 : it->second;
}

ReferenceFit ReferenceEm(const MonthlyDataset& month,
                         const MedicationModelOptions& options,
                         const MedicationModel* prior) {
  const bool use_prior = prior != nullptr && options.prior_strength > 0.0;
  const bool warm_start = prior != nullptr && options.warm_start;
  std::set<std::uint32_t> medicines;
  std::vector<const MicRecord*> records;
  for (const MicRecord& record : month.records()) {
    for (const auto& entry : record.medicines) {
      medicines.insert(entry.id.value());
    }
    if (!record.diseases.empty() && !record.medicines.empty()) {
      records.push_back(&record);
    }
  }

  ReferenceFit fit;
  for (const MicRecord* record : records) {
    for (const auto& disease : record->diseases) {
      for (const auto& medicine : record->medicines) {
        fit.phi[disease.id.value()][medicine.id.value()] +=
            Theta(*record, disease.count) *
            static_cast<double>(medicine.count);
      }
    }
  }
  for (auto& [d, row] : fit.phi) NormalizeRow(row);
  if (warm_start) {
    for (auto& [d, row] : fit.phi) {
      for (auto& [m, value] : row) {
        const double prior_phi = prior->Phi(DiseaseId(d), MedicineId(m));
        if (prior_phi > 0.0) value = prior_phi;
      }
      NormalizeRow(row);
    }
  }

  double previous = -std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    Rows next;
    double log_likelihood = 0.0;
    for (const MicRecord* record : records) {
      for (const auto& medicine : record->medicines) {
        const double denominator =
            Denominator(fit.phi, *record, medicine.id);
        if (denominator <= 0.0) continue;
        const double count = static_cast<double>(medicine.count);
        log_likelihood += count * std::log(denominator);
        for (const auto& disease : record->diseases) {
          const double weight =
              Theta(*record, disease.count) *
              PhiOrZero(fit.phi, disease.id, medicine.id);
          next[disease.id.value()][medicine.id.value()] +=
              count * (weight / denominator);
        }
      }
    }
    for (auto& [d, row] : next) {
      if (use_prior) {
        for (auto& [m, value] : row) {
          value += options.prior_strength *
                   prior->Phi(DiseaseId(d), MedicineId(m));
        }
      }
      double total = 0.0;
      for (const auto& [m, value] : row) total += value;
      if (total > 0.0) {
        Row& phi_row = fit.phi[d];
        phi_row.clear();
        for (const auto& [m, value] : row) phi_row[m] = value / total;
      }
    }
    fit.log_likelihood_trace.push_back(log_likelihood);
    fit.iterations = iteration + 1;
    const double improvement = log_likelihood - previous;
    previous = log_likelihood;
    if (iteration > 0 &&
        improvement < options.tolerance * std::fabs(log_likelihood)) {
      break;
    }
  }

  for (const MicRecord* record : records) {
    for (const auto& medicine : record->medicines) {
      const double denominator = Denominator(fit.phi, *record, medicine.id);
      if (denominator <= 0.0) continue;
      for (const auto& disease : record->diseases) {
        const double weight = Theta(*record, disease.count) *
                              PhiOrZero(fit.phi, disease.id, medicine.id);
        fit.pair_counts[PairKey(disease.id, medicine.id)] +=
            static_cast<double>(medicine.count) * (weight / denominator);
      }
    }
  }
  fit.smoothing_floor =
      options.phi_smoothing / static_cast<double>(medicines.size());
  return fit;
}

// --- Comparison. -------------------------------------------------------

void ExpectRelativelyNear(double expected, double actual,
                          const std::string& what) {
  const double scale = std::max(std::fabs(expected), std::fabs(actual));
  EXPECT_LE(std::fabs(expected - actual), kRelativeTolerance * scale)
      << what << ": reference " << expected << " vs fit " << actual;
}

void ExpectMatchesReference(const MonthlyDataset& month,
                            const MedicationModelOptions& options,
                            const MedicationModel* prior) {
  const ReferenceFit reference = ReferenceEm(month, options, prior);
  auto fitted = MedicationModel::Fit(month, options, prior);
  ASSERT_TRUE(fitted.ok()) << fitted.status();
  const MedicationModel& model = **fitted;

  ASSERT_EQ(reference.iterations, model.fit_stats().iterations);
  const auto& trace = model.fit_stats().log_likelihood_trace;
  ASSERT_EQ(reference.log_likelihood_trace.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ExpectRelativelyNear(reference.log_likelihood_trace[i], trace[i],
                         "log-likelihood at iteration " + std::to_string(i));
  }

  // Every (disease, medicine) of the month, inside the support or not:
  // Phi adds the smoothing floor to (1 - smoothing) * φ.
  std::set<std::uint32_t> diseases;
  std::set<std::uint32_t> medicines;
  for (const MicRecord& record : month.records()) {
    for (const auto& entry : record.diseases) diseases.insert(entry.id.value());
    for (const auto& entry : record.medicines) {
      medicines.insert(entry.id.value());
    }
  }
  const double keep = 1.0 - options.phi_smoothing;
  for (std::uint32_t d : diseases) {
    for (std::uint32_t m : medicines) {
      const double expected =
          keep * PhiOrZero(reference.phi, DiseaseId(d), MedicineId(m)) +
          reference.smoothing_floor;
      ExpectRelativelyNear(expected, model.Phi(DiseaseId(d), MedicineId(m)),
                           "phi(" + std::to_string(d) + ", " +
                               std::to_string(m) + ")");
    }
  }

  const PairCounts& counts = model.MonthlyPairCounts();
  EXPECT_EQ(reference.pair_counts.size(), counts.size());
  for (const auto& [key, value] : reference.pair_counts) {
    ExpectRelativelyNear(value, counts.Get(PairDisease(key), PairMedicine(key)),
                         "pair count " + std::to_string(key));
  }
}

// Cold, warm-started and temporally coupled fits of `month`, the last
// two against a cold fit of `previous`.
void ExpectAllPathsMatchReference(const MonthlyDataset& previous,
                                  const MonthlyDataset& month) {
  auto prior = MedicationModel::Fit(previous);
  ASSERT_TRUE(prior.ok()) << prior.status();
  {
    SCOPED_TRACE("cold");
    ExpectMatchesReference(month, MedicationModelOptions{}, nullptr);
  }
  {
    SCOPED_TRACE("warm start");
    MedicationModelOptions options;
    options.warm_start = true;
    ExpectMatchesReference(month, options, prior->get());
  }
  {
    SCOPED_TRACE("temporal prior");
    MedicationModelOptions options;
    options.prior_strength = 5.0;
    ExpectMatchesReference(month, options, prior->get());
  }
}

TEST(EmReferenceTest, DisambiguationMonthMatchesReference) {
  // The previous month leans harder on hypertension and knows a
  // medicine this month never sees.
  MonthlyDataset previous = DisambiguationMonth();
  for (int i = 0; i < 20; ++i) previous.AddRecord(MakeRecord({0}, {0, 2}));
  ExpectAllPathsMatchReference(previous, DisambiguationMonth());
}

TEST(EmReferenceTest, GeneratedMonthMatchesReference) {
  auto world = synth::MakePaperWorld();
  ASSERT_TRUE(world.ok()) << world.status();
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok()) << data.status();

  MonthlyDataset month = data->corpus.month(1);
  // One record with 70 distinct diseases (70 mentions) and three of the
  // month's medicines.
  MicRecord wide;
  for (std::uint32_t d = 0; d < 70; ++d) {
    wide.diseases.push_back({DiseaseId(d), 1});
  }
  for (const MicRecord& record : month.records()) {
    if (wide.medicines.size() == 3) break;
    for (const auto& entry : record.medicines) {
      if (wide.medicines.size() < 3) wide.medicines.push_back(entry);
    }
    wide.Normalize();
  }
  ASSERT_GT(wide.TotalDiseaseMentions(), 64u);
  month.AddRecord(wide);
  ASSERT_GE(month.size(), 1000u);

  ExpectAllPathsMatchReference(data->corpus.month(0), month);
}

}  // namespace
}  // namespace mic::medmodel
