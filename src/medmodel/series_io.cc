#include "medmodel/series_io.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <string>

#include "common/strings.h"

namespace mic::medmodel {
namespace {

constexpr char kHeader[] = "kind,disease,medicine,values";

// Shortest text that parses back to the same double, so a written series
// reads back bit for bit.
std::string FormatValues(const std::vector<double>& values) {
  std::string out;
  char buffer[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ';';
    out.append(buffer,
               std::to_chars(buffer, buffer + sizeof(buffer), values[i]).ptr);
  }
  return out;
}

}  // namespace

Status WriteSeriesCsv(const SeriesSet& series, const Catalog& catalog,
                      std::ostream& out) {
  out << kHeader << "\n";
  series.ForEachDisease([&](DiseaseId d, const std::vector<double>& values) {
    out << "disease," << catalog.diseases().Name(d) << ",-,"
        << FormatValues(values) << "\n";
  });
  series.ForEachMedicine(
      [&](MedicineId m, const std::vector<double>& values) {
        out << "medicine,-," << catalog.medicines().Name(m) << ","
            << FormatValues(values) << "\n";
      });
  series.ForEachPair([&](DiseaseId d, MedicineId m,
                         const std::vector<double>& values) {
    out << "prescription," << catalog.diseases().Name(d) << ","
        << catalog.medicines().Name(m) << "," << FormatValues(values)
        << "\n";
  });
  if (!out.good()) return Status::IoError("stream failure writing series");
  return Status::OK();
}

Status WriteSeriesCsvFile(const SeriesSet& series, const Catalog& catalog,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return WriteSeriesCsv(series, catalog, out);
}

Result<SeriesSet> ReadSeriesCsv(std::istream& in, Catalog& catalog) {
  std::string line;
  if (!std::getline(in, line) || StripWhitespace(line) != kHeader) {
    return Status::InvalidArgument(std::string("expected header '") +
                                   kHeader + "'");
  }
  int num_months = -1;
  SeriesSet series(0);
  std::size_t line_number = 1;
  bool first_row = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (StripWhitespace(line).empty()) continue;
    const auto fields = Split(line, ',');
    if (fields.size() != 4) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected 4 fields");
    }
    std::vector<double> values;
    for (const std::string& token : Split(fields[3], ';')) {
      MIC_ASSIGN_OR_RETURN(double value, ParseDouble(token));
      values.push_back(value);
    }
    if (first_row) {
      num_months = static_cast<int>(values.size());
      series = SeriesSet(num_months);
      first_row = false;
    } else if (static_cast<int>(values.size()) != num_months) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": inconsistent series length");
    }

    // Each row restores one view verbatim, so write/read round-trips
    // exactly (the three views were already consistent when written).
    const std::string_view kind = StripWhitespace(fields[0]);
    if (kind == "prescription") {
      series.SetPrescriptionSeries(
          catalog.diseases().Intern(StripWhitespace(fields[1])),
          catalog.medicines().Intern(StripWhitespace(fields[2])),
          std::move(values));
    } else if (kind == "disease") {
      series.SetDiseaseSeries(
          catalog.diseases().Intern(StripWhitespace(fields[1])),
          std::move(values));
    } else if (kind == "medicine") {
      series.SetMedicineSeries(
          catalog.medicines().Intern(StripWhitespace(fields[2])),
          std::move(values));
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": unknown kind '" +
                                     std::string(kind) + "'");
    }
  }
  return series;
}

Result<SeriesSet> ReadSeriesCsvFile(const std::string& path,
                                    Catalog& catalog) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ReadSeriesCsv(in, catalog);
}

}  // namespace mic::medmodel
