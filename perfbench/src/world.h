// Benchmark inputs: a synthetic paper world drawn from the run's seed,
// written out as claim CSVs and imported into a claim store — the same
// `generate` → `import` path a deployment takes. The program under test
// only ever sees these files.

#ifndef PERFBENCH_SRC_WORLD_H_
#define PERFBENCH_SRC_WORLD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "mic/dataset.h"
#include "src/ledger.h"

namespace perfbench {

struct WorldSpec {
  int months = 43;
  std::size_t patients = 2000;
  std::size_t background = 40;
};

struct StoreWorld {
  std::string store_dir;
  std::string hospitals_csv;
  /// Corpus CSV holding months [0, n), keyed by n.
  std::map<int, std::string> corpus_csv;
};

/// Generates the world for `seed` under `dir` (created fresh): the
/// hospitals CSV, one corpus CSV per entry of `csv_months`, and a store
/// holding the first `store_months` months, imported month by month
/// from the parsed CSV. Each ClaimStore::AppendMonth call is a "store"
/// span; its wall time is appended to `append_seconds`.
mic::Result<StoreWorld> BuildStoreWorld(const WorldSpec& spec,
                                        std::uint64_t seed,
                                        const std::string& dir,
                                        int store_months,
                                        const std::vector<int>& csv_months,
                                        Tracer& tracer,
                                        std::vector<double>* append_seconds);

/// Parses a corpus CSV and joins the hospitals CSV onto its catalog.
mic::Result<mic::MicCorpus> ParseCorpus(const std::string& corpus_csv,
                                        const std::string& hospitals_csv);

/// Removes `dir` and everything below it (errors ignored).
void RemoveTree(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORLD_H_
