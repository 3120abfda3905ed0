// The benchmark's measurement vocabulary: run options, metrics, the
// per-layer ledger, and the span tracer the traced run records with.
//
// Every call the harness makes into a layer's public entry point goes
// through Tracer::Call. Untraced, that is two clock reads. Traced, it
// also records a span (layer, name, start, end, parent span, request
// id) in memory, and — for the ledger self-test only — sleeps for an
// injected delay inside the span of one named entry point before making
// the call. Spans are written out once, when the run ends.

#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "src/stats.h"

namespace perfbench {

/// What one invocation runs. `inject_*` and `small` exist for the
/// ledger self-test; the benchmark command never sets them.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated inputs (removed after the run).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string spans_path;
  /// Span name (entry point) to delay by inject_seconds, traced only.
  std::string inject_call;
  double inject_seconds = 0.0;
  bool small = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// The samples behind `value`; n == 0 for a count or a value derived
  /// from other metrics.
  Summary summary;
  /// How `value` derives from the samples: "median", "mean", a
  /// percentile such as "p99", or "rate" (completed operations per
  /// second). With no samples, a note on where the value comes from
  /// (may be empty).
  std::string basis = "median";
  /// The raw samples, in run order (printed when there are few).
  std::vector<double> samples;
};

/// A workload's outcome: the end-to-end metrics of the untraced run or
/// the per-layer ledger of the traced run, plus the named figures and
/// request accounting the printout shows.
struct WorkloadResult {
  std::vector<std::string> failures;  // failed output checks
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> named;  // headline figures, printed only
  std::map<std::string, Metric> layers;  // per-layer ledger (traced)
  std::vector<std::string> notes;

  bool correct() const { return failures.empty(); }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Metric built from timing samples: value = median.
Metric TimedMetric(std::string name, std::string unit,
                   const std::vector<double>& samples, double scale = 1.0);

/// A ledger entry with its unit from the schema: the median of
/// `samples`, with their count and quartiles.
Metric LedgerTiming(const std::string& name,
                    const std::vector<double>& samples);

/// A ledger entry with its unit from the schema that was read once or
/// derived from other figures; `basis` says how.
Metric LedgerValue(const std::string& name, double value,
                   std::string basis = "");

/// The per-layer metric names with their units, in ledger order. Every
/// traced run reports all of them; a layer a workload does not exercise
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& LedgerSchema();

/// The layer each ledger metric belongs to ("store", "medmodel", ...).
std::string LayerOf(std::string_view metric);

/// Per-layer samples collected over repeated traced operations.
class LedgerSamples {
 public:
  void Add(const std::map<std::string, double>& sample);
  /// One ledger entry per metric, each with its sample count and
  /// quartiles: a timing is the median of its samples, a count the mean.
  /// With `counts_repeat`, a count that differs between samples appends
  /// a failure naming it.
  std::map<std::string, Metric> Reduce(WorkloadResult& result,
                                       bool counts_repeat) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Point-in-time copy of a MetricsRegistry's counters and timers, for
/// reading a layer's work over an interval as the difference of two
/// snapshots.
class RegistrySnapshot {
 public:
  explicit RegistrySnapshot(const mic::obs::MetricsRegistry& registry);

  double Counter(std::string_view name) const;
  /// Summed seconds / calls of every timer named `leaf` or ending in
  /// "/<leaf>" (span timers carry their parent path).
  double TimerSeconds(std::string_view leaf) const;
  double TimerCount(std::string_view leaf) const;

  RegistrySnapshot operator-(const RegistrySnapshot& earlier) const;

 private:
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, std::pair<double, double>, std::less<>> timers_;
};

/// Fills the ledger entries the registry can answer for the work
/// recorded in `delta`.
void LedgerFromRegistry(const RegistrySnapshot& delta,
                        std::map<std::string, double>& ledger);

struct SpanRecord {
  int id = 0;
  int parent = -1;
  std::string layer;
  std::string name;
  std::int64_t request = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t thread = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::string inject_call = {},
         double inject_seconds = 0.0);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Calls fn() inside a span of `layer` and returns its result. The
  /// call's wall time (including any injected delay) goes to *seconds
  /// when `seconds` is non-null.
  template <typename F>
  decltype(auto) Call(std::string_view layer, std::string_view name, F&& fn,
                      double* seconds = nullptr,
                      std::int64_t request = -1) {
    Scope scope(this, layer, name, request, seconds);
    return fn();
  }

  std::size_t num_spans() const;
  /// Writes every span, plus the tracing overhead figures (name →
  /// seconds), as JSON.
  bool WriteJson(const std::string& path, const std::string& workload,
                 std::uint64_t seed,
                 const std::map<std::string, double>& overhead) const;

 private:
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view layer, std::string_view name,
          std::int64_t request, double* seconds);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    double* seconds_;
    Clock::time_point start_;
    int id_ = -1;
  };

  bool enabled_;
  std::string inject_call_;
  double inject_seconds_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Returns freed heap to the kernel and resets this process's peak
/// resident set size to its current size, so that a later PeakRssMb()
/// reads the peak of the work done after the call; false when the
/// kernel refuses the reset.
bool ResetPeakRss();

/// Peak resident set size of this process (VmHWM) in MiB since the last
/// ResetPeakRss(); 0 when it cannot be read.
double PeakRssMb();

/// Prints the human-readable block and the final one-line JSON result.
void PrintResult(const RunOptions& options, const WorkloadResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
