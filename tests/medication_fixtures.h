// Small hand-built months shared by the medication-model tests.

#ifndef MICTREND_TESTS_MEDICATION_FIXTURES_H_
#define MICTREND_TESTS_MEDICATION_FIXTURES_H_

#include <cstdint>
#include <initializer_list>

#include "mic/dataset.h"

namespace mic::medmodel {

inline MicRecord MakeRecord(std::initializer_list<int> diseases,
                            std::initializer_list<int> medicines) {
  MicRecord record;
  for (int id : diseases) {
    record.diseases.push_back({DiseaseId(static_cast<std::uint32_t>(id)), 1});
  }
  for (int id : medicines) {
    record.medicines.push_back(
        {MedicineId(static_cast<std::uint32_t>(id)), 1});
  }
  record.Normalize();
  return record;
}

// The paper's Fig. 2 situation in miniature: disease 0 (hypertension) is
// chronic and cooccurs with disease 1 (pain) whose medicine 1
// (analgesic) is everywhere; medicine 0 (depressor) is only ever
// prescribed when disease 0 is present ALONE as well, which identifies
// the link.
inline MonthlyDataset DisambiguationMonth() {
  MonthlyDataset month(0);
  // Records with both diseases and both medicines: ambiguous.
  for (int i = 0; i < 30; ++i) {
    month.AddRecord(MakeRecord({0, 1}, {0, 1}));
  }
  // Records with only disease 1 and only the analgesic: identify
  // medicine 1 as pain's medicine.
  for (int i = 0; i < 40; ++i) {
    month.AddRecord(MakeRecord({1}, {1}));
  }
  // A few pure-hypertension records with the depressor.
  for (int i = 0; i < 10; ++i) {
    month.AddRecord(MakeRecord({0}, {0}));
  }
  return month;
}

}  // namespace mic::medmodel

#endif  // MICTREND_TESTS_MEDICATION_FIXTURES_H_
