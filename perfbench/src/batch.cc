// The two batch workloads, cold_pipeline and em_reproduce.
//
// Untraced, an operation is the library call a `mictrend pipeline` or
// `mictrend reproduce` run makes. Traced, the same work is issued as
// the pipeline's own stage calls — ClaimStore::OpenWorld,
// ReproduceSeries, TrendAnalyzer::AnalyzeAll, BuildDrillDown — each in
// a span, with a MetricsRegistry attached for the work counts, and the
// staged outputs must equal the untraced ones byte for byte.

#include <sstream>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "medmodel/series_io.h"
#include "medmodel/timeseries.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "src/world.h"
#include "src/workloads.h"
#include "store/claim_store.h"
#include "trend/drilldown.h"
#include "trend/pipeline.h"
#include "trend/report_io.h"
#include "trend/trend_analyzer.h"

namespace perfbench {
namespace {

using mic::Result;
using mic::Status;

struct BatchSpec {
  const char* name;
  bool pipeline;  // cold_pipeline (true) or em_reproduce (false)
  WorldSpec world;
  const char* op_name;  // the named end-to-end figure
  int setup_repeats;    // set-up is cheap next to an operation
  int threads;
};

mic::trend::PipelineConfig MakeConfig(const std::string& store_dir) {
  mic::trend::PipelineConfig config;
  config.reproducer.min_series_total = 10.0;
  config.analyzer.detector.seasonal = true;
  config.analyzer.detector.aic_margin = 4.0;
  config.analyzer.detector.min_tail_observations = 3;
  config.analyzer.use_approximate = true;
  config.drilldown_axes = {mic::trend::DrillAxis::kMedicine};
  config.store.directory = store_dir;
  return config;
}

// The bytes a run's users read: the report, drill-down and series CSVs
// for the pipeline; the series CSV for reproduce.
Result<std::string> Render(const mic::Catalog& catalog,
                           const mic::medmodel::SeriesSet& series,
                           const mic::trend::TrendReport* report,
                           const mic::trend::DrillDownReport* drill,
                           const mic::trend::PipelineConfig& config) {
  std::ostringstream out;
  MIC_RETURN_IF_ERROR(mic::medmodel::WriteSeriesCsv(series, catalog, out));
  if (report != nullptr) {
    mic::trend::TrendAnalyzer analyzer(config.analyzer);
    MIC_RETURN_IF_ERROR(
        mic::trend::WriteReportCsv(*report, analyzer, catalog, out));
  }
  if (drill != nullptr) {
    MIC_RETURN_IF_ERROR(mic::trend::WriteDrillDownCsv(*drill, out));
  }
  return out.str();
}

Result<mic::MicCorpus> OpenWorld(const std::string& store_dir,
                                 mic::obs::MetricsRegistry* metrics) {
  MIC_ASSIGN_OR_RETURN(
      mic::store::ClaimStore store,
      mic::store::ClaimStore::Open(store_dir, {}, metrics));
  return store.OpenWorld();
}

// One untraced operation: exactly the call the CLI makes. Only the
// call is timed (*seconds); rendering the outputs is not.
Result<std::string> UntracedOp(const BatchSpec& spec,
                               const mic::trend::PipelineConfig& config,
                               mic::runtime::ThreadPool& pool, Tracer& tracer,
                               double* seconds) {
  mic::ExecContext context;
  context.pool = &pool;
  if (spec.pipeline) {
    MIC_ASSIGN_OR_RETURN(
        mic::trend::PipelineResult result,
        tracer.Call("e2e", "trend::RunPipelineFromStore",
                    [&] {
                      return mic::trend::RunPipelineFromStore(config, context);
                    },
                    seconds));
    // The results carry entity ids; render them against the stored
    // catalog.
    MIC_ASSIGN_OR_RETURN(mic::MicCorpus corpus,
                         OpenWorld(config.store.directory, nullptr));
    return Render(corpus.catalog(), result.series, &result.report,
                  &result.drilldowns.front(), config);
  }
  mic::MicCorpus corpus;
  MIC_ASSIGN_OR_RETURN(
      mic::medmodel::SeriesSet series,
      tracer.Call("e2e", "OpenWorld+ReproduceSeries",
                  [&]() -> Result<mic::medmodel::SeriesSet> {
                    MIC_ASSIGN_OR_RETURN(
                        corpus, OpenWorld(config.store.directory, nullptr));
                    return mic::medmodel::ReproduceSeries(
                        corpus, config.reproducer, context);
                  },
                  seconds));
  return Render(corpus.catalog(), series, nullptr, nullptr, config);
}

mic::runtime::StageStats Stage(const mic::runtime::ThreadPool& pool,
                               const std::string& name) {
  for (const mic::runtime::StageStats& stage : pool.stats().stages) {
    if (stage.stage == name) return stage;
  }
  return {};
}

// What the staged calls of one traced operation produce.
struct StagedOutputs {
  mic::MicCorpus corpus;
  mic::medmodel::SeriesSet series;
  mic::trend::TrendReport report;
  mic::trend::DrillDownReport drill;
};

// The pipeline's own stage calls, each in its layer's span, filling the
// harness-timed entries of one ledger sample.
Status StagedOp(const BatchSpec& spec,
                const mic::trend::PipelineConfig& config,
                mic::runtime::ThreadPool& pool, Tracer& tracer,
                mic::obs::MetricsRegistry& registry, StagedOutputs& out,
                std::map<std::string, double>& sample) {
  mic::ExecContext context;
  context.pool = &pool;
  context.metrics = &registry;

  double seconds = 0.0;
  MIC_ASSIGN_OR_RETURN(
      out.corpus,
      tracer.Call("store", "ClaimStore::OpenWorld",
                  [&] { return OpenWorld(config.store.directory, &registry); },
                  &seconds));
  sample["store.open_world_s"] = seconds;

  pool.ResetStats();
  MIC_ASSIGN_OR_RETURN(
      out.series,
      tracer.Call("medmodel", "medmodel::ReproduceSeries",
                  [&] {
                    return mic::medmodel::ReproduceSeries(
                        out.corpus, config.reproducer, context);
                  },
                  &seconds));
  sample["em.reproduce_s"] = seconds;
  const mic::runtime::StageStats estep = Stage(pool, "em-estep");
  sample["em.estep_wall_s"] = estep.wall_seconds;
  sample["em.estep_busy_s"] = estep.busy_seconds;
  sample["em.estep_wait_s"] = estep.wait_seconds;

  if (!spec.pipeline) return Status::OK();
  pool.ResetStats();
  mic::trend::TrendAnalyzer analyzer(config.analyzer);
  MIC_ASSIGN_OR_RETURN(
      out.report,
      tracer.Call("trend.sweep", "TrendAnalyzer::AnalyzeAll",
                  [&] { return analyzer.AnalyzeAll(context, out.series); },
                  &seconds));
  const mic::runtime::StageStats sweep = Stage(pool, "trend-sweep");
  sample["sweep.analyze_all_s"] = seconds;
  sample["sweep.busy_s"] = sweep.busy_seconds;
  sample["sweep.wait_s"] = sweep.wait_seconds;
  sample["sweep.efficiency"] =
      seconds > 0.0 ? sweep.busy_seconds / (seconds * pool.num_threads())
                    : 0.0;

  const std::uint64_t fits_before = registry.counter_value("ssm.fits");
  MIC_ASSIGN_OR_RETURN(
      out.drill,
      tracer.Call("trend.drilldown", "trend::BuildDrillDown",
                  [&] {
                    return mic::trend::BuildDrillDown(
                        context, out.corpus, out.series, out.report,
                        mic::trend::DrillAxis::kMedicine, config.analyzer);
                  },
                  &seconds));
  sample["drill.build_s"] = seconds;
  sample["drill.fits"] =
      static_cast<double>(registry.counter_value("ssm.fits") - fits_before);
  return Status::OK();
}

// One traced operation: the same work as UntracedOp, issued stage by
// stage through the tracer (timed as a whole into *seconds), filling
// one ledger sample.
Result<std::string> TracedOp(const BatchSpec& spec,
                             const mic::trend::PipelineConfig& config,
                             mic::runtime::ThreadPool& pool, Tracer& tracer,
                             double* seconds,
                             std::map<std::string, double>& sample) {
  mic::obs::MetricsRegistry registry;
  StagedOutputs out;
  MIC_RETURN_IF_ERROR(tracer.Call(
      "e2e", spec.name,
      [&] {
        return StagedOp(spec, config, pool, tracer, registry, out, sample);
      },
      seconds));
  LedgerFromRegistry(RegistrySnapshot(registry), sample);
  if (!spec.pipeline) {
    return Render(out.corpus.catalog(), out.series, nullptr, nullptr, config);
  }
  return Render(out.corpus.catalog(), out.series, &out.report, &out.drill,
                config);
}

WorkloadResult RunBatch(const BatchSpec& spec, const RunOptions& options) {
  WorkloadResult result;
  Tracer tracer(options.trace, options.inject_call, options.inject_seconds);
  WorldSpec world = spec.world;
  if (options.small) world = {24, 60, 2};

  // ---- set-up: generate + import, repeated; the last copy is used ----
  std::vector<double> setup_seconds;
  std::vector<double> append_seconds;
  StoreWorld inputs;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    const std::string dir = options.work_dir + "/setup" + std::to_string(rep);
    const Clock::time_point start = Clock::now();
    auto built = BuildStoreWorld(world, options.seed, dir, world.months,
                                 {world.months}, tracer, &append_seconds);
    setup_seconds.push_back(SecondsSince(start));
    if (!built.ok()) {
      result.Check(false, "set-up: " + built.status().ToString());
      return result;
    }
    inputs = *built;
    if (rep + 1 < spec.setup_repeats) RemoveTree(dir);
  }
  mic::trend::PipelineConfig config = MakeConfig(inputs.store_dir);
  if (options.small) config.analyzer.detector.seasonal = false;
  // peak_rss_mb is the peak of the measured operations alone.
  result.Check(ResetPeakRss(), "cannot reset the peak RSS counter");

  // ---- measurement ----------------------------------------------------
  std::vector<double> op_seconds;
  std::string reference;
  double untraced_reference_seconds = 0.0;
  LedgerSamples ledger;
  auto run_one = [&](bool traced) {
    mic::runtime::ThreadPool pool(spec.threads);
    std::map<std::string, double> sample;
    double seconds = 0.0;
    ++result.attempted;
    Result<std::string> bytes =
        traced ? TracedOp(spec, config, pool, tracer, &seconds, sample)
               : UntracedOp(spec, config, pool, tracer, &seconds);
    if (!bytes.ok()) {
      ++result.failed;
      result.Check(false, std::string(spec.name) + " operation failed: " +
                              bytes.status().ToString());
      return false;
    }
    if (reference.empty()) {
      reference = *bytes;
    } else {
      result.Check(*bytes == reference,
                   traced ? "traced output differs from the untraced run"
                          : "output bytes differ between runs");
    }
    if (traced) ledger.Add(sample);
    op_seconds.push_back(seconds);
    return true;
  };

  if (options.trace) {
    // Untraced reference first: its bytes are what every traced run
    // must reproduce, and its time is the base of the tracing overhead.
    if (!run_one(false)) return result;
    untraced_reference_seconds = op_seconds.front();
    op_seconds.clear();
  }
  const Clock::time_point measure_start = Clock::now();
  do {
    if (!run_one(options.trace)) return result;
  } while (SecondsSince(measure_start) < options.seconds);
  const double measured_seconds = SecondsSince(measure_start);

  const Metric op = TimedMetric("op_p50_ms", "ms", op_seconds, 1e3);
  const Metric setup = TimedMetric("setup_s", "s", setup_seconds);
  const Metric rss{"peak_rss_mb", "MiB", PeakRssMb(), Summary{},
                   "peak over the operations, after set-up"};
  result.named = {TimedMetric(spec.op_name, "s", op_seconds), setup, rss,
                  Metric{"error_share", "ratio", 0.0}};
  if (!options.trace) {
    result.end_to_end = {
        op,
        Metric{"ops_per_s", "1/s",
               static_cast<double>(op_seconds.size()) / measured_seconds,
               Summary{0.0, 0.0, 0.0, op_seconds.size()}, "rate"},
        setup, rss};
    return result;
  }

  result.layers = ledger.Reduce(result, /*counts_repeat=*/true);
  result.layers["store.append_s"] =
      LedgerTiming("store.append_s", append_seconds);
  const double overhead = op.value / 1e3 - untraced_reference_seconds;
  result.notes.push_back("tracing overhead: traced op median " +
                         std::to_string(op.value / 1e3) + " s - untraced " +
                         std::to_string(untraced_reference_seconds) +
                         " s = " + std::to_string(overhead) + " s");
  result.Check(tracer.WriteJson(options.spans_path, spec.name, options.seed,
                                {{"traced_op_median_s", op.value / 1e3},
                                 {"untraced_op_s", untraced_reference_seconds},
                                 {"overhead_s", overhead}}),
               "cannot write " + options.spans_path);
  result.notes.push_back("spans (" + std::to_string(tracer.num_spans()) +
                         ") written to " + options.spans_path);
  return result;
}

}  // namespace

WorkloadResult RunColdPipeline(const RunOptions& options) {
  return RunBatch(
      {"cold_pipeline", true, {43, 200, 10}, "pipeline_s", 15, /*threads=*/4},
      options);
}

WorkloadResult RunEmReproduce(const RunOptions& options) {
  // One thread: with a 4-thread pool, the E-step's thousands of barriers
  // across all four vCPUs made a run's time swing from 3.3 s to 10 s
  // with the VM's steal time.
  return RunBatch(
      {"em_reproduce", false, {43, 2000, 40}, "reproduce_s", 7, /*threads=*/1},
      options);
}

}  // namespace perfbench
