#include "src/world.h"

#include <filesystem>
#include <fstream>

#include "mic/io.h"
#include "store/claim_store.h"
#include "synth/generator.h"
#include "synth/scenario.h"

namespace perfbench {

namespace fs = std::filesystem;
using mic::Status;

mic::Result<StoreWorld> BuildStoreWorld(const WorldSpec& spec,
                                        std::uint64_t seed,
                                        const std::string& dir,
                                        int store_months,
                                        const std::vector<int>& csv_months,
                                        Tracer& tracer,
                                        std::vector<double>* append_seconds) {
  RemoveTree(dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());

  mic::synth::PaperWorldOptions options;
  options.num_months = spec.months;
  options.seed = seed;
  options.num_patients = spec.patients;
  options.num_background_diseases = spec.background;
  MIC_ASSIGN_OR_RETURN(mic::synth::World world,
                       mic::synth::MakePaperWorld(options));
  mic::synth::ClaimGenerator generator(&world);
  MIC_ASSIGN_OR_RETURN(mic::synth::GeneratedData generated,
                       generator.Generate());

  StoreWorld out;
  out.store_dir = dir + "/store";
  out.hospitals_csv = dir + "/hospitals.csv";
  {
    std::ofstream hospitals(out.hospitals_csv);
    MIC_RETURN_IF_ERROR(
        mic::WriteHospitalsCsv(generated.corpus.catalog(), hospitals));
  }
  for (int months : csv_months) {
    if (months < 1 || months > spec.months) {
      return Status::InvalidArgument("corpus prefix out of range");
    }
    mic::MicCorpus prefix(generated.corpus.shared_catalog());
    for (int t = 0; t < months; ++t) {
      MIC_RETURN_IF_ERROR(prefix.AddMonth(generated.corpus.month(t)));
    }
    const std::string path =
        dir + "/corpus" + std::to_string(months) + ".csv";
    MIC_RETURN_IF_ERROR(mic::WriteCorpusCsvFile(prefix, path));
    out.corpus_csv[months] = path;
  }
  auto source = out.corpus_csv.find(store_months);
  if (source == out.corpus_csv.end()) {
    return Status::InvalidArgument("store prefix has no corpus CSV");
  }

  // Import like `mictrend import`: from the parsed CSV, so the store
  // holds the deployment's entity order.
  MIC_ASSIGN_OR_RETURN(mic::MicCorpus parsed,
                       ParseCorpus(source->second, out.hospitals_csv));
  MIC_ASSIGN_OR_RETURN(mic::store::ClaimStore store,
                       mic::store::ClaimStore::Open(out.store_dir));
  for (std::size_t t = 0; t < parsed.num_months(); ++t) {
    double seconds = 0.0;
    MIC_RETURN_IF_ERROR(tracer.Call(
        "store", "ClaimStore::AppendMonth",
        [&] { return store.AppendMonth(parsed.month(t), parsed.catalog()); },
        &seconds));
    if (append_seconds != nullptr) append_seconds->push_back(seconds);
  }
  return out;
}

mic::Result<mic::MicCorpus> ParseCorpus(const std::string& corpus_csv,
                                        const std::string& hospitals_csv) {
  MIC_ASSIGN_OR_RETURN(mic::MicCorpus corpus,
                       mic::ReadCorpusCsvFile(corpus_csv));
  std::ifstream in(hospitals_csv);
  if (!in) return Status::IoError("cannot open " + hospitals_csv);
  MIC_RETURN_IF_ERROR(mic::ReadHospitalsCsv(in, corpus.catalog()));
  return corpus;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace perfbench
