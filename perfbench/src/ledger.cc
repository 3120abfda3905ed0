#include "src/ledger.h"

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <thread>

#include "serve/wire.h"

namespace perfbench {
namespace {

struct LedgerEntry {
  const char* name;
  const char* unit;
  const char* layer;  // the repo module the metric measures
  bool timing;        // wall-clock (median reported) vs a repeatable count
};

const std::vector<LedgerEntry>& Entries() {
  static const std::vector<LedgerEntry> entries = {
      {"store.open_world_s", "s", "store", true},
      {"store.bytes_read", "bytes", "store", false},
      {"store.append_s", "s", "store", true},
      {"em.reproduce_s", "s", "medmodel", true},
      {"em.estep_wall_s", "s", "medmodel", true},
      {"em.estep_busy_s", "s", "medmodel", true},
      {"em.estep_wait_s", "s", "medmodel", true},
      {"em.mstep_s", "s", "medmodel", true},
      {"em.series_build_s", "s", "medmodel", true},
      {"em.iterations", "count", "medmodel", false},
      {"em.records_sharded", "count", "medmodel", false},
      {"sweep.analyze_all_s", "s", "trend.sweep", true},
      {"sweep.busy_s", "s", "trend.sweep", true},
      {"sweep.wait_s", "s", "trend.sweep", true},
      {"sweep.efficiency", "ratio", "trend.sweep", true},
      {"changepoint.aic_evaluations", "count", "trend.sweep", false},
      {"changepoint.candidates_pruned", "count", "trend.sweep", false},
      {"ssm.fits", "count", "ssm", false},
      {"ssm.nm_evals_per_fit", "evals/fit", "ssm", false},
      {"ssm.kalman_passes_per_fit", "passes/fit", "ssm", false},
      {"ssm.ns_per_kalman_pass", "ns", "ssm", true},
      {"ssm.fit_ms", "ms", "ssm", true},
      {"drill.build_s", "s", "trend.drilldown", true},
      {"drill.nodes", "count", "trend.drilldown", false},
      {"drill.leaf_reuses", "count", "trend.drilldown", false},
      {"drill.fits", "count", "trend.drilldown", false},
      {"cache.hits", "count", "cache", false},
      {"cache.misses", "count", "cache", false},
      {"cache.hit_ratio", "ratio", "cache", false},
      {"cache.bytes_written", "bytes", "cache", false},
      {"reproduce.months_fitted_per_ingest", "count", "cache", false},
      {"serve.handler_us.health", "us", "serve.handler", true},
      {"serve.handler_us.top_changes", "us", "serve.handler", true},
      {"serve.handler_us.series", "us", "serve.handler", true},
      {"serve.handler_us.drilldown", "us", "serve.handler", true},
      {"serve.handler_us.report_csv", "us", "serve.handler", true},
      {"serve.transport_gap_ms", "ms", "serve.wire", true},
      {"serve.snapshot_build_s", "s", "serve.snapshot", true},
      {"serve.swap_drain_s", "s", "serve.snapshot", true},
      {"serve.overload_rejections", "count", "serve.snapshot", false},
  };
  return entries;
}

const LedgerEntry* FindEntry(std::string_view name) {
  for (const LedgerEntry& entry : Entries()) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

std::string UnitOf(std::string_view name) {
  const LedgerEntry* entry = FindEntry(name);
  return entry == nullptr ? "" : entry->unit;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

bool LeafMatches(std::string_view name, std::string_view leaf) {
  if (name == leaf) return true;
  return name.size() > leaf.size() &&
         name.substr(name.size() - leaf.size()) == leaf &&
         name[name.size() - leaf.size() - 1] == '/';
}

// JSON has no infinity; a latency that every failed request pushed to
// +inf must still read as the worst value, not as 0.
mic::serve::JsonValue JsonNumber(double value) {
  if (std::isnan(value)) value = 0.0;
  if (std::isinf(value)) {
    value = std::copysign(std::numeric_limits<double>::max(), value);
  }
  return mic::serve::JsonValue::Number(value);
}

void PrintMetricLine(const Metric& metric) {
  std::printf("  %-30s %14.6g %-6s", metric.name.c_str(), metric.value,
              metric.unit.c_str());
  const Summary& summary = metric.summary;
  if (metric.basis == "rate") {
    std::printf("  rate: %zu completed", summary.n);
  } else if (summary.n > 0) {
    std::printf("  %s of n=%zu (median %.6g, q1 %.6g, q3 %.6g)",
                metric.basis.c_str(), summary.n, summary.median, summary.q1,
                summary.q3);
  } else if (!metric.basis.empty() && metric.basis != "median") {
    std::printf("  %s", metric.basis.c_str());
  }
  std::printf("\n");
  if (!metric.samples.empty() && metric.samples.size() <= 16) {
    std::printf("  %-30s", "");
    for (double sample : metric.samples) std::printf(" %.6g", sample);
    std::printf("  (samples in run order)\n");
  }
}

}  // namespace

Metric TimedMetric(std::string name, std::string unit,
                   const std::vector<double>& samples, double scale) {
  std::vector<double> scaled;
  scaled.reserve(samples.size());
  for (double sample : samples) scaled.push_back(sample * scale);
  Metric metric{std::move(name), std::move(unit), 0.0, Summarize(scaled)};
  metric.value = metric.summary.median;
  metric.samples = std::move(scaled);
  return metric;
}

Metric LedgerTiming(const std::string& name,
                    const std::vector<double>& samples) {
  Metric metric{name, UnitOf(name), 0.0, Summarize(samples)};
  metric.value = metric.summary.median;
  return metric;
}

Metric LedgerValue(const std::string& name, double value, std::string basis) {
  return Metric{name, UnitOf(name), value, Summary{}, std::move(basis)};
}

const std::vector<std::pair<std::string, std::string>>& LedgerSchema() {
  static const std::vector<std::pair<std::string, std::string>> schema =
      [] {
        std::vector<std::pair<std::string, std::string>> out;
        for (const LedgerEntry& entry : Entries()) {
          out.emplace_back(entry.name, entry.unit);
        }
        return out;
      }();
  return schema;
}

std::string LayerOf(std::string_view metric) {
  const LedgerEntry* entry = FindEntry(metric);
  return entry == nullptr ? "unknown" : entry->layer;
}

void LedgerSamples::Add(const std::map<std::string, double>& sample) {
  for (const auto& [name, value] : sample) values_[name].push_back(value);
}

std::map<std::string, Metric> LedgerSamples::Reduce(
    WorkloadResult& result, bool counts_repeat) const {
  std::map<std::string, Metric> out;
  for (const auto& [name, values] : values_) {
    const LedgerEntry* entry = FindEntry(name);
    if (entry == nullptr || entry->timing) {
      out[name] = LedgerTiming(name, values);
      continue;
    }
    double sum = 0.0;
    for (double value : values) {
      sum += value;
      if (counts_repeat) {
        result.Check(value == values.front(),
                     "work count " + name + " differs between runs");
      }
    }
    out[name] = Metric{name, entry->unit,
                       sum / static_cast<double>(values.size()),
                       Summarize(values), "mean"};
  }
  return out;
}

RegistrySnapshot::RegistrySnapshot(
    const mic::obs::MetricsRegistry& registry) {
  for (const auto& [name, value] : registry.SnapshotCounters()) {
    counters_[name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : registry.SnapshotTimers()) {
    timers_[name] = {value.seconds, static_cast<double>(value.count)};
  }
}

double RegistrySnapshot::Counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double RegistrySnapshot::TimerSeconds(std::string_view leaf) const {
  double total = 0.0;
  for (const auto& [name, value] : timers_) {
    if (LeafMatches(name, leaf)) total += value.first;
  }
  return total;
}

double RegistrySnapshot::TimerCount(std::string_view leaf) const {
  double total = 0.0;
  for (const auto& [name, value] : timers_) {
    if (LeafMatches(name, leaf)) total += value.second;
  }
  return total;
}

RegistrySnapshot RegistrySnapshot::operator-(
    const RegistrySnapshot& earlier) const {
  RegistrySnapshot delta = *this;
  for (auto& [name, value] : delta.counters_) value -= earlier.Counter(name);
  for (auto& [name, value] : delta.timers_) {
    auto it = earlier.timers_.find(name);
    if (it == earlier.timers_.end()) continue;
    value.first -= it->second.first;
    value.second -= it->second.second;
  }
  return delta;
}

void LedgerFromRegistry(const RegistrySnapshot& delta,
                        std::map<std::string, double>& ledger) {
  ledger["store.bytes_read"] = delta.Counter("store.bytes_read");
  ledger["em.mstep_s"] = delta.TimerSeconds("em.mstep");
  ledger["em.series_build_s"] =
      delta.TimerSeconds("reproduce") - delta.TimerSeconds("em_fit");
  ledger["em.iterations"] = delta.Counter("em.iterations");
  ledger["em.records_sharded"] = delta.Counter("em.records_sharded");
  ledger["changepoint.aic_evaluations"] =
      delta.Counter("changepoint.aic_evaluations");
  ledger["changepoint.candidates_pruned"] =
      delta.Counter("changepoint.candidates_pruned");
  const double fits = delta.Counter("ssm.fits");
  const double passes = delta.Counter("ssm.kalman_passes");
  const double fit_seconds = delta.TimerSeconds("trend.series_fit");
  ledger["ssm.fits"] = fits;
  ledger["ssm.nm_evals_per_fit"] =
      Ratio(delta.Counter("ssm.nelder_mead_evaluations"), fits);
  ledger["ssm.kalman_passes_per_fit"] = Ratio(passes, fits);
  ledger["ssm.ns_per_kalman_pass"] = Ratio(fit_seconds * 1e9, passes);
  ledger["ssm.fit_ms"] =
      Ratio(fit_seconds * 1e3, delta.TimerCount("trend.series_fit"));
  ledger["drill.nodes"] = delta.Counter("trend.rollup.nodes");
  ledger["drill.leaf_reuses"] = delta.Counter("trend.rollup.leaf_reuses");
  const double hits = delta.Counter("cache.hits");
  const double misses = delta.Counter("cache.misses");
  ledger["cache.hits"] = hits;
  ledger["cache.misses"] = misses;
  ledger["cache.hit_ratio"] = Ratio(hits, hits + misses);
  ledger["cache.bytes_written"] = delta.Counter("cache.bytes_written");
}

Tracer::Tracer(bool enabled, std::string inject_call, double inject_seconds)
    : enabled_(enabled),
      inject_call_(std::move(inject_call)),
      inject_seconds_(inject_seconds),
      origin_(Clock::now()) {}

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, std::string_view layer,
                     std::string_view name, std::int64_t request,
                     double* seconds)
    : tracer_(tracer), seconds_(seconds), start_(Clock::now()) {
  if (!tracer_->enabled_) return;
  SpanRecord span;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.layer = std::string(layer);
  span.name = std::string(name);
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start_ - tracer_->origin_)
                      .count();
  span.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = span.id = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back(std::move(span));
  }
  open_spans.push_back(id_);
  if (!tracer_->inject_call_.empty() && name == tracer_->inject_call_) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(tracer_->inject_seconds_));
  }
}

Tracer::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  if (seconds_ != nullptr) {
    *seconds_ = std::chrono::duration<double>(end - start_).count();
  }
  if (id_ < 0) return;
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[id_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                           tracer_->origin_)
          .count();
}

std::size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path, const std::string& workload,
                       std::uint64_t seed,
                       const std::map<std::string, double>& overhead) const {
  using mic::serve::JsonValue;
  JsonValue overheads = JsonValue::Object();
  for (const auto& [name, value] : overhead) {
    overheads.Set(name, JsonNumber(value));
  }
  JsonValue spans = JsonValue::Array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& span : spans_) {
      JsonValue record = JsonValue::Object();
      record.Set("id", JsonValue::Int(span.id))
          .Set("parent", JsonValue::Int(span.parent))
          .Set("layer", JsonValue::String(span.layer))
          .Set("name", JsonValue::String(span.name))
          .Set("request", JsonValue::Int(span.request))
          .Set("start_ns", JsonValue::Int(span.start_ns))
          .Set("end_ns", JsonValue::Int(span.end_ns))
          .Set("thread", JsonValue::String(std::to_string(span.thread)));
      spans.Append(std::move(record));
    }
  }
  JsonValue document = JsonValue::Object();
  document.Set("workload", JsonValue::String(workload))
      .Set("seed", JsonValue::Int(static_cast<std::int64_t>(seed)))
      .Set("tracing_overhead", std::move(overheads))
      .Set("spans", std::move(spans));
  std::ofstream out(path);
  out << document.Serialize() << "\n";
  return static_cast<bool>(out);
}

bool ResetPeakRss() {
  malloc_trim(0);
  // Writing 5 to clear_refs resets the peak RSS (VmHWM) to the current RSS.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void PrintResult(const RunOptions& options, const WorkloadResult& result) {
  std::printf("== perfbench %s  seed=%llu  seconds=%g  trace=%d  nproc=%ld ==\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN));
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (!options.trace) {
    std::printf("end-to-end metrics (untraced):\n");
    for (const Metric& metric : result.end_to_end) PrintMetricLine(metric);
  }
  if (!result.named.empty()) {
    std::printf("named figures:\n");
    for (const Metric& metric : result.named) PrintMetricLine(metric);
  }
  if (options.trace) {
    std::printf("per-layer ledger (traced):\n");
    std::string layer;
    for (const auto& [name, unit] : LedgerSchema()) {
      if (LayerOf(name) != layer) {
        layer = LayerOf(name);
        std::printf(" [%s]\n", layer.c_str());
      }
      auto it = result.layers.find(name);
      PrintMetricLine(it != result.layers.end()
                          ? it->second
                          : LedgerValue(name, 0.0, "not observed here"));
    }
  }
  std::printf("attempted %lld, failed %lld, error_share %.6g\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              Ratio(static_cast<double>(result.failed),
                    static_cast<double>(result.attempted)));
  if (result.correct()) {
    std::printf("output checks: all passed\n");
  } else {
    for (const std::string& failure : result.failures) {
      std::printf("output check FAILED: %s\n", failure.c_str());
    }
  }

  using mic::serve::JsonValue;
  JsonValue metrics = JsonValue::Object();
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonNumber(value)).Set("unit", JsonValue::String(unit));
    metrics.Set(name, std::move(entry));
  };
  if (options.trace) {
    for (const auto& [name, unit] : LedgerSchema()) {
      auto it = result.layers.find(name);
      emit(name, it == result.layers.end() ? 0.0 : it->second.value, unit);
    }
  } else {
    for (const Metric& metric : result.end_to_end) {
      emit(metric.name, metric.value, metric.unit);
    }
  }
  JsonValue json = JsonValue::Object();
  json.Set("correct", JsonValue::Bool(result.correct()))
      .Set("attempted", JsonValue::Int(result.attempted))
      .Set("failed", JsonValue::Int(result.failed))
      .Set("metrics", std::move(metrics));
  std::printf("%s\n", json.Serialize().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
