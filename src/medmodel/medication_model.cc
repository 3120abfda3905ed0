#include "medmodel/medication_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cache/snapshot_io.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "obs/trace_log.h"
#include "runtime/thread_pool.h"

namespace mic::medmodel {
namespace {

// Records per E-step chunk. The chunking is fixed — never a function of
// the thread count — and every reduction over chunks runs in a fixed
// serial order, which is what makes the fit bit-identical at any
// parallelism.
constexpr std::size_t kEstepChunkRecords = 256;

// One month compiled to month-local dense slots, as flat arrays. Record
// r owns the disease entries [disease_begin[r], disease_begin[r + 1])
// (slot and theta, Eq. 2), the medicine entries
// [medicine_begin[r], medicine_begin[r + 1]) (slot and multiplicity),
// and the record entries [entry_begin[r], entry_begin[r + 1]): one per
// (medicine i, disease j), medicine-major, so the entry of the i-th
// medicine and j-th disease is entry_begin[r] + i * D_r + j.
struct CompiledMonth {
  std::vector<std::size_t> disease_begin{0};
  std::vector<std::size_t> disease_slot;
  std::vector<double> theta;
  std::vector<std::size_t> medicine_begin{0};
  std::vector<std::size_t> medicine_slot;
  std::vector<double> medicine_count;
  std::vector<std::size_t> entry_begin{0};

  std::size_t num_records() const { return disease_begin.size() - 1; }
  std::size_t num_entries() const { return entry_begin.back(); }
};

// The month's (disease, medicine) support: every slot pair that shares a
// record, as keys d << 32 | m in ascending order. That is CSR layout:
// disease d's row is [row_begin[d], row_begin[d + 1]) with medicines in
// ascending slot order. entry_pair[e] is record entry e's pair index.
struct SupportIndex {
  std::vector<std::uint64_t> pairs;
  std::vector<std::size_t> row_begin;
  std::vector<std::size_t> entry_pair;

  std::size_t disease(std::size_t p) const { return pairs[p] >> 32; }
  std::size_t medicine(std::size_t p) const {
    return pairs[p] & 0xFFFFFFFFull;
  }
};

SupportIndex BuildSupportIndex(const CompiledMonth& month,
                               std::size_t num_diseases) {
  SupportIndex index;
  std::vector<std::uint64_t> entry_key;
  entry_key.reserve(month.num_entries());
  for (std::size_t r = 0; r < month.num_records(); ++r) {
    for (std::size_t i = month.medicine_begin[r];
         i < month.medicine_begin[r + 1]; ++i) {
      for (std::size_t j = month.disease_begin[r];
           j < month.disease_begin[r + 1]; ++j) {
        entry_key.push_back(
            (static_cast<std::uint64_t>(month.disease_slot[j]) << 32) |
            month.medicine_slot[i]);
      }
    }
  }
  index.pairs = entry_key;
  std::sort(index.pairs.begin(), index.pairs.end());
  index.pairs.erase(std::unique(index.pairs.begin(), index.pairs.end()),
                    index.pairs.end());
  index.row_begin.assign(num_diseases + 1, 0);
  for (std::size_t p = 0; p < index.pairs.size(); ++p) {
    ++index.row_begin[index.disease(p) + 1];
  }
  for (std::size_t d = 0; d < num_diseases; ++d) {
    index.row_begin[d + 1] += index.row_begin[d];
  }
  index.entry_pair.reserve(entry_key.size());
  for (std::uint64_t key : entry_key) {
    index.entry_pair.push_back(static_cast<std::size_t>(
        std::lower_bound(index.pairs.begin(), index.pairs.end(), key) -
        index.pairs.begin()));
  }
  return index;
}

// Writes count * q (Eq. 6) for every entry of records [begin, end) into
// entry_value and returns those records' log-likelihood contribution. A
// (record, medicine) with no support under phi gets zero
// responsibilities and no likelihood term.
double Responsibilities(const CompiledMonth& month,
                        const SupportIndex& index,
                        const std::vector<double>& phi, std::size_t begin,
                        std::size_t end, std::vector<double>& entry_value) {
  double log_likelihood = 0.0;
  for (std::size_t r = begin; r < end; ++r) {
    std::size_t e = month.entry_begin[r];
    for (std::size_t i = month.medicine_begin[r];
         i < month.medicine_begin[r + 1]; ++i) {
      const std::size_t first = e;
      double denominator = 0.0;
      for (std::size_t j = month.disease_begin[r];
           j < month.disease_begin[r + 1]; ++j, ++e) {
        const double weight = month.theta[j] * phi[index.entry_pair[e]];
        entry_value[e] = weight;
        denominator += weight;
      }
      if (denominator <= 0.0) {  // No support.
        std::fill(entry_value.begin() + first, entry_value.begin() + e, 0.0);
        continue;
      }
      const double count = month.medicine_count[i];
      log_likelihood += count * std::log(denominator);
      for (std::size_t k = first; k < e; ++k) {
        entry_value[k] = count * (entry_value[k] / denominator);
      }
    }
  }
  return log_likelihood;
}

// Sums the per-entry values into per-pair values in entry order.
void FoldEntries(const SupportIndex& index,
                 const std::vector<double>& entry_value,
                 std::vector<double>& pair_value) {
  std::fill(pair_value.begin(), pair_value.end(), 0.0);
  for (std::size_t e = 0; e < entry_value.size(); ++e) {
    pair_value[index.entry_pair[e]] += entry_value[e];
  }
}

// Normalizes each CSR row of `mass` into `phi`, totals summed in
// ascending medicine slot order. A row without mass leaves phi as it
// was. `mass` and `phi` may be the same vector.
void NormalizeRows(const SupportIndex& index, const std::vector<double>& mass,
                   std::vector<double>& phi) {
  for (std::size_t d = 0; d + 1 < index.row_begin.size(); ++d) {
    const std::size_t row_begin = index.row_begin[d];
    const std::size_t row_end = index.row_begin[d + 1];
    double total = 0.0;
    for (std::size_t p = row_begin; p < row_end; ++p) total += mass[p];
    if (total > 0.0) {
      for (std::size_t p = row_begin; p < row_end; ++p) {
        phi[p] = mass[p] / total;
      }
    }
  }
}

}  // namespace

Result<std::unique_ptr<MedicationModel>> MedicationModel::Fit(
    const MonthlyDataset& month, const MedicationModelOptions& options,
    const MedicationModel* prior) {
  return Fit(month, options, prior, ExecContext{});
}

Result<std::unique_ptr<MedicationModel>> MedicationModel::Fit(
    const MonthlyDataset& month, const MedicationModelOptions& options,
    const MedicationModel* prior, const ExecContext& context) {
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (options.phi_smoothing < 0.0 || options.phi_smoothing >= 1.0) {
    return Status::InvalidArgument("phi_smoothing must be in [0, 1)");
  }
  if (options.prior_strength < 0.0) {
    return Status::InvalidArgument("prior_strength must be non-negative");
  }
  const bool use_prior = prior != nullptr && options.prior_strength > 0.0;
  const bool warm_start = prior != nullptr && options.warm_start;

  runtime::ThreadPool* pool = context.pool;
  obs::MetricsRegistry* metrics = context.metrics;
  obs::Span fit_span(context, "em_fit");
  obs::Increment(obs::GetCounter(metrics, "em.fits"));
  obs::Counter* iterations_counter = obs::GetCounter(metrics,
                                                     "em.iterations");
  obs::Counter* sharded_counter =
      obs::GetCounter(metrics, "em.records_sharded");
  // Relative per-iteration log-likelihood improvement, the EM
  // convergence driver (options.tolerance sits among these edges).
  obs::Histogram* improvement_histogram = obs::GetHistogram(
      metrics, "em.loglik_rel_improvement",
      {1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1});
  obs::Timer* estep_timer = obs::GetTimer(metrics, "em.estep");
  obs::Timer* mstep_timer = obs::GetTimer(metrics, "em.mstep");

  auto model = std::unique_ptr<MedicationModel>(new MedicationModel());

  // Assign month-local dense slots.
  std::vector<DiseaseId> slot_to_disease;
  std::vector<MedicineId> slot_to_medicine;
  for (const MicRecord& record : month.records()) {
    for (const auto& entry : record.diseases) {
      if (model->disease_slots_.emplace(entry.id, slot_to_disease.size())
              .second) {
        slot_to_disease.push_back(entry.id);
      }
    }
    for (const auto& entry : record.medicines) {
      if (model->medicine_slots_.emplace(entry.id, slot_to_medicine.size())
              .second) {
        slot_to_medicine.push_back(entry.id);
      }
    }
  }
  const std::size_t num_diseases = slot_to_disease.size();
  const std::size_t num_medicines = slot_to_medicine.size();
  if (num_diseases == 0 || num_medicines == 0) {
    return Status::InvalidArgument(
        "month has no usable records (no diseases or no medicines)");
  }

  // Compile records; skip those missing either bag.
  CompiledMonth records;
  std::vector<double> disease_totals(num_diseases, 0.0);
  for (const MicRecord& record : month.records()) {
    if (record.diseases.empty() || record.medicines.empty()) continue;
    const double n_r = static_cast<double>(record.TotalDiseaseMentions());
    for (const auto& entry : record.diseases) {
      const std::size_t slot = model->disease_slots_[entry.id];
      records.disease_slot.push_back(slot);
      records.theta.push_back(static_cast<double>(entry.count) / n_r);
      disease_totals[slot] += static_cast<double>(entry.count);
    }
    for (const auto& entry : record.medicines) {
      records.medicine_slot.push_back(model->medicine_slots_[entry.id]);
      records.medicine_count.push_back(static_cast<double>(entry.count));
    }
    records.disease_begin.push_back(records.disease_slot.size());
    records.medicine_begin.push_back(records.medicine_slot.size());
    records.entry_begin.push_back(records.entry_begin.back() +
                                  record.diseases.size() *
                                      record.medicines.size());
  }
  const std::size_t num_records = records.num_records();
  if (num_records == 0) {
    return Status::InvalidArgument("no record has both bags non-empty");
  }

  // eta (Eq. 4): normalized disease mention totals.
  double disease_grand_total = 0.0;
  for (double total : disease_totals) disease_grand_total += total;
  model->eta_.resize(num_diseases);
  for (std::size_t d = 0; d < num_diseases; ++d) {
    model->eta_[d] = disease_totals[d] / disease_grand_total;
  }

  // φ, the expected counts and the prior's φ live in flat arrays
  // indexed by support pair; entry_value holds one value per record
  // entry. Nothing below allocates per iteration.
  const SupportIndex index = BuildSupportIndex(records, num_diseases);
  const std::size_t num_pairs = index.pairs.size();
  std::vector<double> phi(num_pairs);
  std::vector<double> expected(num_pairs);
  std::vector<double> entry_value(records.num_entries());

  // Initialize phi from cooccurrence counts (Eq. 10): every medicine that
  // ever shares a record with disease d gets positive initial mass, so
  // all responsibilities are well defined from the first E step.
  for (std::size_t r = 0; r < num_records; ++r) {
    std::size_t e = records.entry_begin[r];
    for (std::size_t i = records.medicine_begin[r];
         i < records.medicine_begin[r + 1]; ++i) {
      for (std::size_t j = records.disease_begin[r];
           j < records.disease_begin[r + 1]; ++j, ++e) {
        entry_value[e] = records.theta[j] * records.medicine_count[i];
      }
    }
  }
  FoldEntries(index, entry_value, phi);
  NormalizeRows(index, phi, phi);

  // The previous month's phi over this month's support, looked up once.
  std::vector<double> prior_phi;
  if (use_prior || warm_start) {
    prior_phi.resize(num_pairs);
    for (std::size_t p = 0; p < num_pairs; ++p) {
      prior_phi[p] = prior->Phi(slot_to_disease[index.disease(p)],
                                slot_to_medicine[index.medicine(p)]);
    }
  }

  // Warm start (incremental update): overwrite the cooccurrence seed
  // with the previous month's converged phi wherever the prior has
  // support, keeping the cooccurrence value for pairs new this month so
  // every responsibility stays well defined, then renormalize. The
  // support set is unchanged, so EM explores the same parameter space
  // and converges to the same tolerance — just from a closer start.
  if (warm_start) {
    for (std::size_t p = 0; p < num_pairs; ++p) {
      if (prior_phi[p] > 0.0) phi[p] = prior_phi[p];
    }
    NormalizeRows(index, phi, phi);
  }

  // EM (Eqs. 5-6). The E step runs fixed-size record chunks (parallel
  // when context.pool is set); each chunk writes its entries'
  // responsibilities and its log-likelihood into its own slots, and the
  // serial fold that follows sums them in entry and chunk order, so the
  // reduction is deterministic.
  const std::size_t num_chunks =
      (num_records + kEstepChunkRecords - 1) / kEstepChunkRecords;
  std::vector<double> chunk_log_likelihood(num_chunks);
  auto responsibility_chunk = [&records, &index, &phi, &entry_value](
                                  std::size_t chunk_begin,
                                  std::size_t chunk_end) {
    return Responsibilities(records, index, phi, chunk_begin, chunk_end,
                            entry_value);
  };
  double previous_log_likelihood = -std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    obs::Increment(iterations_counter);
    obs::Increment(sharded_counter, num_records);
    double log_likelihood = 0.0;
    {
      obs::ScopedTimer estep_scope(estep_timer, context.trace, "estep");
      MIC_RETURN_IF_ERROR(runtime::ParallelFor(
          pool, 0, num_records, kEstepChunkRecords,
          obs::TraceChunks(
              context.trace, "em-estep",
              [&responsibility_chunk, &chunk_log_likelihood](
                  std::size_t chunk_begin, std::size_t chunk_end,
                  std::size_t chunk_index) {
                chunk_log_likelihood[chunk_index] =
                    responsibility_chunk(chunk_begin, chunk_end);
                return Status::OK();
              }),
          "em-estep"));
      FoldEntries(index, entry_value, expected);
      for (double chunk : chunk_log_likelihood) log_likelihood += chunk;
    }

    // M step: normalize expected counts into phi; with a temporal
    // prior, each pair receives alpha * phi_prev(d, m) pseudo counts
    // (Topic-Tracking MAP update).
    {
      obs::ScopedTimer mstep_scope(mstep_timer, context.trace, "mstep");
      if (use_prior) {
        for (std::size_t p = 0; p < num_pairs; ++p) {
          expected[p] += options.prior_strength * prior_phi[p];
        }
      }
      NormalizeRows(index, expected, phi);
    }

    model->stats_.log_likelihood_trace.push_back(log_likelihood);
    model->stats_.iterations = iteration + 1;
    const double improvement = log_likelihood - previous_log_likelihood;
    previous_log_likelihood = log_likelihood;
    if (iteration > 0) {
      if (std::fabs(log_likelihood) > 0.0) {
        obs::Observe(improvement_histogram,
                     improvement / std::fabs(log_likelihood));
      }
      if (improvement < options.tolerance * std::fabs(log_likelihood)) {
        break;
      }
    }
  }
  model->stats_.final_log_likelihood = previous_log_likelihood;

  // Final responsibilities accumulate the per-pair prescription counts
  // x_dm (Eq. 7) over the same fixed chunks and the same entry-order
  // fold as the E step.
  obs::Increment(sharded_counter, num_records);
  MIC_RETURN_IF_ERROR(runtime::ParallelFor(
      pool, 0, num_records, kEstepChunkRecords,
      obs::TraceChunks(context.trace, "em-pair-counts",
                       [&responsibility_chunk](std::size_t chunk_begin,
                                               std::size_t chunk_end,
                                               std::size_t) {
                         responsibility_chunk(chunk_begin, chunk_end);
                         return Status::OK();
                       }),
      "em-pair-counts"));
  FoldEntries(index, entry_value, expected);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    model->pair_counts_.Add(slot_to_disease[index.disease(p)],
                            slot_to_medicine[index.medicine(p)],
                            expected[p]);
  }

  // Store smoothed phi: a fraction `phi_smoothing` of each disease's
  // mass is spread uniformly over the month's medicines.
  model->smoothing_floor_ =
      options.phi_smoothing / static_cast<double>(num_medicines);
  const double keep = 1.0 - options.phi_smoothing;
  model->phi_.resize(num_diseases);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    model->phi_[index.disease(p)][index.medicine(p)] = keep * phi[p];
  }

  return model;
}

std::vector<std::uint8_t> MedicationModel::Serialize() const {
  cache::SnapshotWriter writer;
  const std::size_t num_diseases = eta_.size();
  writer.PutU64(num_diseases);
  writer.PutU64(medicine_slots_.size());

  // Slot tables in id order (unordered_map iteration order is not
  // stable across processes).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> slots;
  slots.reserve(disease_slots_.size());
  for (const auto& [id, slot] : disease_slots_) {
    slots.push_back({id.value(), slot});
  }
  std::sort(slots.begin(), slots.end());
  for (const auto& [id, slot] : slots) {
    writer.PutU32(id);
    writer.PutU64(slot);
  }
  slots.clear();
  for (const auto& [id, slot] : medicine_slots_) {
    slots.push_back({id.value(), slot});
  }
  std::sort(slots.begin(), slots.end());
  for (const auto& [id, slot] : slots) {
    writer.PutU32(id);
    writer.PutU64(slot);
  }

  for (double value : eta_) writer.PutDouble(value);

  std::vector<std::pair<std::uint64_t, double>> row;
  for (std::size_t d = 0; d < num_diseases; ++d) {
    row.assign(phi_[d].begin(), phi_[d].end());
    std::sort(row.begin(), row.end());
    writer.PutU64(row.size());
    for (const auto& [m, value] : row) {
      writer.PutU64(m);
      writer.PutDouble(value);
    }
  }
  writer.PutDouble(smoothing_floor_);

  row.assign(pair_counts_.raw().begin(), pair_counts_.raw().end());
  std::sort(row.begin(), row.end());
  writer.PutU64(row.size());
  for (const auto& [key, value] : row) {
    writer.PutU64(key);
    writer.PutDouble(value);
  }

  writer.PutI64(stats_.iterations);
  writer.PutDouble(stats_.final_log_likelihood);
  writer.PutU64(stats_.log_likelihood_trace.size());
  for (double value : stats_.log_likelihood_trace) writer.PutDouble(value);
  return writer.Take();
}

Result<std::unique_ptr<MedicationModel>> MedicationModel::Deserialize(
    const std::vector<std::uint8_t>& payload) {
  cache::SnapshotReader reader(payload);
  auto model = std::unique_ptr<MedicationModel>(new MedicationModel());

  MIC_ASSIGN_OR_RETURN(const std::uint64_t num_diseases, reader.U64());
  MIC_ASSIGN_OR_RETURN(const std::uint64_t num_medicines, reader.U64());
  for (std::uint64_t i = 0; i < num_diseases; ++i) {
    MIC_ASSIGN_OR_RETURN(const std::uint32_t id, reader.U32());
    MIC_ASSIGN_OR_RETURN(const std::uint64_t slot, reader.U64());
    if (slot >= num_diseases) {
      return Status::FailedPrecondition("disease slot out of range");
    }
    model->disease_slots_.emplace(DiseaseId(id), slot);
  }
  for (std::uint64_t i = 0; i < num_medicines; ++i) {
    MIC_ASSIGN_OR_RETURN(const std::uint32_t id, reader.U32());
    MIC_ASSIGN_OR_RETURN(const std::uint64_t slot, reader.U64());
    if (slot >= num_medicines) {
      return Status::FailedPrecondition("medicine slot out of range");
    }
    model->medicine_slots_.emplace(MedicineId(id), slot);
  }
  if (model->disease_slots_.size() != num_diseases ||
      model->medicine_slots_.size() != num_medicines) {
    return Status::FailedPrecondition("duplicate ids in slot table");
  }

  model->eta_.resize(num_diseases);
  for (std::uint64_t d = 0; d < num_diseases; ++d) {
    MIC_ASSIGN_OR_RETURN(model->eta_[d], reader.Double());
  }

  model->phi_.resize(num_diseases);
  for (std::uint64_t d = 0; d < num_diseases; ++d) {
    MIC_ASSIGN_OR_RETURN(const std::uint64_t row_size, reader.U64());
    for (std::uint64_t i = 0; i < row_size; ++i) {
      MIC_ASSIGN_OR_RETURN(const std::uint64_t m, reader.U64());
      MIC_ASSIGN_OR_RETURN(const double value, reader.Double());
      if (m >= num_medicines) {
        return Status::FailedPrecondition("phi medicine slot out of range");
      }
      model->phi_[d][m] = value;
    }
  }
  MIC_ASSIGN_OR_RETURN(model->smoothing_floor_, reader.Double());

  MIC_ASSIGN_OR_RETURN(const std::uint64_t num_pairs, reader.U64());
  for (std::uint64_t i = 0; i < num_pairs; ++i) {
    MIC_ASSIGN_OR_RETURN(const std::uint64_t key, reader.U64());
    MIC_ASSIGN_OR_RETURN(const double value, reader.Double());
    model->pair_counts_.Add(PairDisease(key), PairMedicine(key), value);
  }

  MIC_ASSIGN_OR_RETURN(const std::int64_t iterations, reader.I64());
  model->stats_.iterations = static_cast<int>(iterations);
  MIC_ASSIGN_OR_RETURN(model->stats_.final_log_likelihood,
                       reader.Double());
  MIC_ASSIGN_OR_RETURN(const std::uint64_t trace_size, reader.U64());
  model->stats_.log_likelihood_trace.resize(trace_size);
  for (std::uint64_t i = 0; i < trace_size; ++i) {
    MIC_ASSIGN_OR_RETURN(model->stats_.log_likelihood_trace[i],
                         reader.Double());
  }
  if (!reader.AtEnd()) {
    return Status::FailedPrecondition(
        "trailing bytes after medication-model snapshot");
  }
  return model;
}

std::size_t MedicationModel::DiseaseSlot(DiseaseId d) const {
  auto it = disease_slots_.find(d);
  return it == disease_slots_.end() ? kNoSlot : it->second;
}

std::size_t MedicationModel::MedicineSlot(MedicineId m) const {
  auto it = medicine_slots_.find(m);
  return it == medicine_slots_.end() ? kNoSlot : it->second;
}

double MedicationModel::Eta(DiseaseId d) const {
  const std::size_t slot = DiseaseSlot(d);
  return slot == kNoSlot ? 0.0 : eta_[slot];
}

double MedicationModel::Phi(DiseaseId d, MedicineId m) const {
  const std::size_t d_slot = DiseaseSlot(d);
  const std::size_t m_slot = MedicineSlot(m);
  if (d_slot == kNoSlot || m_slot == kNoSlot) return 0.0;
  auto it = phi_[d_slot].find(m_slot);
  const double base = it == phi_[d_slot].end() ? 0.0 : it->second;
  return base + smoothing_floor_;
}

double MedicationModel::Theta(const MicRecord& record, DiseaseId d) {
  const double n_r = static_cast<double>(record.TotalDiseaseMentions());
  if (n_r == 0.0) return 0.0;
  for (const auto& entry : record.diseases) {
    if (entry.id == d) return static_cast<double>(entry.count) / n_r;
  }
  return 0.0;
}

double MedicationModel::PredictiveProbability(const MicRecord& record,
                                              MedicineId m) const {
  const double n_r = static_cast<double>(record.TotalDiseaseMentions());
  if (n_r == 0.0) return 0.0;
  double probability = 0.0;
  for (const auto& entry : record.diseases) {
    const double theta = static_cast<double>(entry.count) / n_r;
    probability += theta * Phi(entry.id, m);
  }
  return probability;
}

}  // namespace mic::medmodel
