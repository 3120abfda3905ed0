#include "medmodel/series_io.h"

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

namespace mic::medmodel {
namespace {

SeriesSet MakeSet(Catalog& catalog) {
  SeriesSet series(4);
  const DiseaseId flu = catalog.diseases().Intern("flu");
  const MedicineId antiviral = catalog.medicines().Intern("antiviral");
  series.Add(flu, antiviral, 0, 3.5);
  series.Add(flu, antiviral, 2, 1.25);
  const DiseaseId bp = catalog.diseases().Intern("bp");
  const MedicineId depressor = catalog.medicines().Intern("depressor");
  series.Add(bp, depressor, 1, 7.0);
  return series;
}

TEST(SeriesIoTest, RoundTripPreservesAllViews) {
  Catalog catalog;
  SeriesSet original = MakeSet(catalog);
  // Values whose shortest exact text needs up to 17 significant digits.
  const DiseaseId cold = catalog.diseases().Intern("cold");
  const MedicineId syrup = catalog.medicines().Intern("syrup");
  original.Add(cold, syrup, 0, 0.1 + 0.2);
  original.Add(cold, syrup, 1, 1.0 / 3);
  original.Add(cold, syrup, 3, 1e-300);
  std::ostringstream out;
  ASSERT_TRUE(WriteSeriesCsv(original, catalog, out).ok());

  Catalog fresh;
  std::istringstream in(out.str());
  auto read_back = ReadSeriesCsv(in, fresh);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back->num_months(), 4);
  EXPECT_EQ(read_back->num_pairs(), 3u);
  EXPECT_EQ(read_back->num_diseases(), 3u);
  EXPECT_EQ(read_back->num_medicines(), 3u);

  const DiseaseId flu = *fresh.diseases().Lookup("flu");
  const MedicineId antiviral = *fresh.medicines().Lookup("antiviral");
  const auto pair = read_back->Prescription(flu, antiviral);
  EXPECT_DOUBLE_EQ(pair[0], 3.5);
  EXPECT_DOUBLE_EQ(pair[1], 0.0);
  EXPECT_DOUBLE_EQ(pair[2], 1.25);
  const auto disease = read_back->Disease(flu);
  EXPECT_DOUBLE_EQ(disease[0], 3.5);
  const auto medicine = read_back->Medicine(antiviral);
  EXPECT_DOUBLE_EQ(medicine[2], 1.25);

  // Every view reads back bit for bit.
  auto expect_same_bits = [](const std::vector<double>& want,
                             const std::vector<double>& got) {
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want[t]),
                std::bit_cast<std::uint64_t>(got[t]))
          << "month " << t << ": " << want[t] << " vs " << got[t];
    }
  };
  original.ForEachPair([&](DiseaseId d, MedicineId m,
                           const std::vector<double>& values) {
    expect_same_bits(
        values,
        read_back->Prescription(
            *fresh.diseases().Lookup(catalog.diseases().Name(d)),
            *fresh.medicines().Lookup(catalog.medicines().Name(m))));
  });
  original.ForEachDisease([&](DiseaseId d, const std::vector<double>& values) {
    expect_same_bits(values, read_back->Disease(*fresh.diseases().Lookup(
                                 catalog.diseases().Name(d))));
  });
  original.ForEachMedicine(
      [&](MedicineId m, const std::vector<double>& values) {
        expect_same_bits(values, read_back->Medicine(*fresh.medicines().Lookup(
                                     catalog.medicines().Name(m))));
      });
  const auto syrup_back = read_back->Prescription(
      *fresh.diseases().Lookup("cold"), *fresh.medicines().Lookup("syrup"));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(syrup_back[0]),
            std::bit_cast<std::uint64_t>(0.1 + 0.2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(syrup_back[1]),
            std::bit_cast<std::uint64_t>(1.0 / 3));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(syrup_back[3]),
            std::bit_cast<std::uint64_t>(1e-300));
}

TEST(SeriesIoTest, RejectsBadHeader) {
  Catalog catalog;
  std::istringstream in("wrong,header\n");
  EXPECT_FALSE(ReadSeriesCsv(in, catalog).ok());
}

TEST(SeriesIoTest, RejectsInconsistentLengths) {
  Catalog catalog;
  std::istringstream in(
      "kind,disease,medicine,values\n"
      "disease,flu,-,1;2;3\n"
      "disease,bp,-,1;2\n");
  EXPECT_FALSE(ReadSeriesCsv(in, catalog).ok());
}

TEST(SeriesIoTest, RejectsUnknownKind) {
  Catalog catalog;
  std::istringstream in(
      "kind,disease,medicine,values\n"
      "banana,flu,-,1;2\n");
  EXPECT_FALSE(ReadSeriesCsv(in, catalog).ok());
}

TEST(SeriesIoTest, RejectsUnparsableValues) {
  Catalog catalog;
  std::istringstream in(
      "kind,disease,medicine,values\n"
      "disease,flu,-,1;x;3\n");
  EXPECT_FALSE(ReadSeriesCsv(in, catalog).ok());
}

TEST(SeriesIoTest, SettersOverwriteSingleView) {
  SeriesSet series(3);
  series.SetDiseaseSeries(DiseaseId(0), {1.0, 2.0, 3.0});
  EXPECT_EQ(series.num_diseases(), 1u);
  EXPECT_EQ(series.num_pairs(), 0u);
  EXPECT_DOUBLE_EQ(series.Disease(DiseaseId(0))[1], 2.0);
  // Short vectors are padded to the month count.
  series.SetMedicineSeries(MedicineId(1), {5.0});
  const auto medicine = series.Medicine(MedicineId(1));
  ASSERT_EQ(medicine.size(), 3u);
  EXPECT_DOUBLE_EQ(medicine[0], 5.0);
  EXPECT_DOUBLE_EQ(medicine[2], 0.0);
}

}  // namespace
}  // namespace mic::medmodel
