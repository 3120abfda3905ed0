// The serve workload: an in-process serve::TcpServer over TrendService
// on a 12-month store (the non-seasonal bench_serve configuration),
// loaded by 4 closed-loop client connections — each sends its next
// request only after the previous reply, as dashboards and `mictrend
// query` do. The per-client request mix is fixed and drawn from the
// seed: per 12 requests, bench_serve's 6 health, 3 top_changes and 1
// report_csv, plus 1 series and 1 drilldown (see RequestMix).
//
//   Phase A: read-only, for half the run's seconds.
//   Phase B: a control connection ingests months 12..23 one at a time
//            (store append, warm cache rebuild, snapshot publish) while
//            the same clients keep querying.
//
// The served report CSV must equal the offline RunPipeline twin built
// with the same cache chain, before the first ingest and after the last.
// The traced run adds client spans, in-process TrendService::Handle
// timings on a pinned reader, and the daemon registry's view of the
// layers that only run inside a served request.

#include <atomic>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/cache_store.h"
#include "common/exec_context.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "src/world.h"
#include "src/workloads.h"
#include "trend/pipeline.h"
#include "trend/report_io.h"

namespace perfbench {
namespace {

namespace serve = mic::serve;
using mic::Result;
using mic::Status;

constexpr int kSeedMonths = 12;
constexpr int kTotalMonths = 24;
constexpr int kClients = 4;
constexpr int kSetupRepeats = 5;
constexpr int kHandlerCallsPerOp = 40;

enum Op { kHealth, kTopChanges, kSeries, kDrilldown, kReportCsv, kNumOps };
constexpr const char* kOpNames[kNumOps] = {"health", "top_changes", "series",
                                           "drilldown", "report_csv"};

enum class Outcome { kOk, kFailed, kRefused };
// kPhaseAUntraced: the traced run's first half of phase A, sent without
// client spans, as the base of the tracing overhead.
enum Phase { kPhaseA, kPhaseB, kPhaseAUntraced, kNumPhases };

mic::trend::PipelineConfig MakeConfig(const std::string& store_dir,
                                      const std::string& cache_dir) {
  mic::trend::PipelineConfig config;
  config.reproducer.filter_options.min_disease_count = 5;
  config.reproducer.filter_options.min_medicine_count = 5;
  config.reproducer.min_series_total = 10.0;
  config.analyzer.detector.seasonal = false;  // 12-month seed window
  config.analyzer.detector.fit.optimizer.max_evaluations = 160;
  config.store.directory = store_dir;
  config.cache.mode = mic::cache::CacheMode::kReadWrite;
  config.cache.directory = cache_dir;
  return config;
}

serve::JsonValue Request(const char* op) {
  serve::JsonValue request = serve::JsonValue::Object();
  request.Set("op", serve::JsonValue::String(op));
  return request;
}

// Series names the mix may ask for: every analyzed medicine and disease
// of the first snapshot (later snapshots only add months).
struct QueryNames {
  std::vector<std::string> medicines;
  std::vector<std::string> diseases;
};

// One client's request stream, a pure function of (seed, stream).
//
// The base is bench_serve's documented mix, 6 health : 3 top_changes
// (k 5) : 1 report_csv. No traffic record weights the two query ops
// that mix lacks, so series and drilldown each come in at the rate of
// the rarest op there, one per 12 requests, which keeps the base
// ratio. The series kind (medicine or disease) and the drill-down axis
// are drawn uniformly; those weights are assumed, not observed.
class RequestMix {
 public:
  RequestMix(std::uint64_t seed, int stream, const QueryNames& names)
      : rng_(seed * 1000003u + static_cast<std::uint64_t>(stream)),
        names_(names) {}

  std::pair<Op, serve::JsonValue> Next() {
    static constexpr Op kWeights[] = {
        kHealth,     kHealth,     kHealth,     kHealth,    kHealth,
        kHealth,     kTopChanges, kTopChanges, kTopChanges, kReportCsv,
        kSeries,     kDrilldown};
    static constexpr const char* kAxes[] = {"medicine", "disease",
                                            "hospital"};
    const Op op = kWeights[rng_() % std::size(kWeights)];
    serve::JsonValue request = Request(kOpNames[op]);
    if (op == kTopChanges) {
      request.Set("k", serve::JsonValue::Int(5));
    } else if (op == kSeries) {
      const bool medicine =
          names_.diseases.empty() ||
          (!names_.medicines.empty() && rng_() % 2 == 0);
      const std::vector<std::string>& pool =
          medicine ? names_.medicines : names_.diseases;
      request.Set("kind",
                  serve::JsonValue::String(medicine ? "medicine" : "disease"));
      request.Set(medicine ? "medicine" : "disease",
                  serve::JsonValue::String(pool[rng_() % pool.size()]));
    } else if (op == kDrilldown) {
      request.Set("axis", serve::JsonValue::String(kAxes[rng_() % 3]));
    }
    return {op, std::move(request)};
  }

 private:
  std::mt19937_64 rng_;
  const QueryNames& names_;
};

Outcome Classify(const Result<serve::JsonValue>& response) {
  if (!response.ok()) return Outcome::kFailed;
  if (response->GetBool("ok", false)) return Outcome::kOk;
  const serve::JsonValue* error = response->Find("error");
  return error != nullptr && error->GetString("code") == "overloaded"
             ? Outcome::kRefused
             : Outcome::kFailed;
}

// The daemon: cache + service + TCP server + its serving thread, torn
// down in reverse order.
class Daemon {
 public:
  static Result<std::unique_ptr<Daemon>> Boot(
      const mic::trend::PipelineConfig& config) {
    std::unique_ptr<Daemon> daemon(new Daemon);
    daemon->cache_ = std::make_unique<mic::cache::CacheStore>(
        config.cache.directory, mic::cache::CacheMode::kReadWrite,
        &daemon->metrics_);
    MIC_RETURN_IF_ERROR(daemon->cache_->Open());
    mic::ExecContext context;
    context.metrics = &daemon->metrics_;
    context.cache = daemon->cache_.get();
    MIC_ASSIGN_OR_RETURN(daemon->service_,
                         serve::TrendService::Create(config, context));
    serve::ServerOptions options;
    options.num_workers = kClients + 1;  // persistent connections + control
    options.limits.poll_interval_ms = 20;
    MIC_ASSIGN_OR_RETURN(
        daemon->server_,
        serve::TcpServer::Start(daemon->service_.get(), options));
    serve::TcpServer* server = daemon->server_.get();
    daemon->serving_ = std::thread([server] { (void)server->Serve(); });
    return daemon;
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  void Stop() {
    if (server_ != nullptr) server_->RequestStop();
    if (serving_.joinable()) serving_.join();
    server_.reset();
    service_.reset();
  }

  int port() const { return server_->port(); }
  serve::TrendService& service() { return *service_; }
  const mic::obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  Daemon() = default;

  mic::obs::MetricsRegistry metrics_;
  std::unique_ptr<mic::cache::CacheStore> cache_;
  std::unique_ptr<serve::TrendService> service_;
  std::unique_ptr<serve::TcpServer> server_;
  std::thread serving_;
};

struct Sample {
  Phase phase;
  Op op;
  double seconds;
  Outcome outcome;
};

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  std::int64_t refused = 0;

  void Add(Outcome outcome) {
    ++attempted;
    if (outcome == Outcome::kOk) ++succeeded;
    if (outcome == Outcome::kFailed) ++failed;
    if (outcome == Outcome::kRefused) ++refused;
  }
  std::string ToString(const char* label) const {
    return std::string(label) + ": attempted " + std::to_string(attempted) +
           ", succeeded " + std::to_string(succeeded) + ", failed " +
           std::to_string(failed) + ", refused " + std::to_string(refused);
  }
};

struct LoadState {
  std::atomic<int> phase{kPhaseA};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> next_request{0};
};

serve::WireLimits ClientLimits() {
  serve::WireLimits limits;
  limits.timeout_ms = 60000;
  return limits;
}

void ClientLoop(int port, std::uint64_t seed, int stream,
                const QueryNames& names, LoadState& state, Tracer& tracer,
                Tracer& untraced, std::vector<Sample>& samples) {
  RequestMix mix(seed, stream, names);
  const serve::WireLimits limits = ClientLimits();
  Result<int> fd = serve::ConnectTcp("127.0.0.1", port);
  while (!state.stop.load()) {
    auto [op, request] = mix.Next();
    const Phase phase = static_cast<Phase>(state.phase.load());
    if (!fd.ok()) {
      samples.push_back({phase, op, 0.0, Outcome::kFailed});
      break;
    }
    double seconds = 0.0;
    Tracer& active = phase == kPhaseAUntraced ? untraced : tracer;
    const Result<serve::JsonValue> response = active.Call(
        "serve.wire", kOpNames[op],
        [&] { return serve::RoundTrip(*fd, request, limits); }, &seconds,
        state.next_request.fetch_add(1));
    samples.push_back({phase, op, seconds, Classify(response)});
    if (!response.ok()) {  // the connection is gone; dial again
      close(*fd);
      fd = serve::ConnectTcp("127.0.0.1", port);
    }
  }
  if (fd.ok()) close(*fd);
}

// Latency percentile in ms over one phase; a failed or refused request
// counts as missing every latency limit (+inf).
std::vector<double> PhaseLatencies(const std::vector<Sample>& samples,
                                   Phase phase) {
  std::vector<double> out;
  for (const Sample& sample : samples) {
    if (sample.phase != phase) continue;
    out.push_back(sample.outcome == Outcome::kOk
                      ? sample.seconds * 1e3
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

Metric PercentileMetric(std::string name, const std::vector<double>& values,
                        int percent) {
  return Metric{std::move(name), "ms", Percentile(values, percent / 100.0),
                Summarize(values), "p" + std::to_string(percent)};
}

// The offline twin: RunPipeline over each parsed corpus prefix in turn,
// chained through one cache exactly as the daemon's rebuilds are.
// Returns the report CSV of every prefix, keyed by month count.
Result<std::map<int, std::string>> OfflineTwins(
    const StoreWorld& inputs, const mic::trend::PipelineConfig& config,
    const std::string& cache_dir) {
  mic::cache::CacheStore cache(cache_dir, mic::cache::CacheMode::kReadWrite);
  MIC_RETURN_IF_ERROR(cache.Open());
  mic::ExecContext context;
  context.cache = &cache;
  std::map<int, std::string> out;
  for (const auto& [months, path] : inputs.corpus_csv) {
    MIC_ASSIGN_OR_RETURN(mic::MicCorpus corpus,
                         ParseCorpus(path, inputs.hospitals_csv));
    MIC_ASSIGN_OR_RETURN(mic::trend::PipelineResult result,
                         mic::trend::RunPipeline(corpus, config, context));
    std::ostringstream csv;
    mic::trend::TrendAnalyzer analyzer(config.analyzer);
    MIC_RETURN_IF_ERROR(mic::trend::WriteReportCsv(result.report, analyzer,
                                                   corpus.catalog(), csv));
    out[months] = csv.str();
  }
  return out;
}

QueryNames NamesFromSnapshot(serve::TrendService& service) {
  QueryNames names;
  auto reader = service.hub().Register();
  if (!reader.ok()) return names;
  serve::SnapshotPin pin = service.hub().Acquire(*reader);
  const mic::Catalog& catalog = pin->corpus.catalog();
  for (const auto& row : pin->report.medicines) {
    names.medicines.push_back(catalog.medicines().Name(row.medicine));
  }
  for (const auto& row : pin->report.diseases) {
    names.diseases.push_back(catalog.diseases().Name(row.disease));
  }
  return names;
}

// In-process handler time per op on a pinned reader, over the same mix
// the clients send (serve.handler_us.*), plus the mix-wide median the
// transport gap is measured against.
double MeasureHandlers(serve::TrendService& service, std::uint64_t seed,
                       const QueryNames& names, Tracer& tracer,
                       WorkloadResult& result) {
  auto reader = service.hub().Register();
  if (!reader.ok()) {
    result.Check(false, "handler timing: " + reader.status().ToString());
    return 0.0;
  }
  RequestMix mix(seed, kClients, names);
  std::vector<double> per_op[kNumOps];
  std::vector<double> all;
  auto done = [&] {
    for (const auto& samples : per_op) {
      if (samples.size() < kHandlerCallsPerOp) return false;
    }
    return true;
  };
  while (!done()) {
    auto [op, request] = mix.Next();
    double seconds = 0.0;
    const serve::JsonValue response = tracer.Call(
        "serve.handler", std::string("TrendService::Handle/") + kOpNames[op],
        [&] { return service.Handle(request, *reader); }, &seconds);
    result.Check(response.GetBool("ok", false),
                 std::string("in-process handler failed for ") + kOpNames[op]);
    per_op[op].push_back(seconds * 1e6);
    all.push_back(seconds * 1e3);
  }
  for (int op = 0; op < kNumOps; ++op) {
    const std::string name = std::string("serve.handler_us.") + kOpNames[op];
    result.layers[name] = LedgerTiming(name, per_op[op]);
  }
  return Summarize(all).median;
}

// One ingest's ledger sample: the daemon registry's work between the
// ingest request and its reply, plus the reply's drain time.
std::map<std::string, double> IngestSample(const RegistrySnapshot& delta,
                                           double drain_seconds) {
  std::map<std::string, double> sample;
  LedgerFromRegistry(delta, sample);
  const double load_calls = delta.TimerCount("store.load");
  sample["store.open_world_s"] =
      load_calls > 0.0 ? delta.TimerSeconds("store.load") / load_calls : 0.0;
  sample["em.reproduce_s"] = delta.TimerSeconds("reproduce");
  sample["em.estep_wall_s"] = delta.TimerSeconds("em.estep");
  sample["sweep.analyze_all_s"] = delta.TimerSeconds("detect");
  sample["drill.build_s"] = delta.TimerSeconds("drilldown");
  sample["drill.fits"] =
      delta.Counter("ssm.fits") - delta.Counter("trend.series_fits");
  sample["reproduce.months_fitted_per_ingest"] =
      delta.Counter("reproduce.months_fitted");
  sample["serve.snapshot_build_s"] =
      delta.TimerSeconds("store.load") + delta.TimerSeconds("pipeline");
  sample["serve.swap_drain_s"] = drain_seconds;
  return sample;
}

}  // namespace

WorkloadResult RunServe(const RunOptions& options) {
  WorkloadResult result;
  Tracer tracer(options.trace, options.inject_call, options.inject_seconds);
  WorldSpec world{kTotalMonths, 200, 10};
  if (options.small) world = {kTotalMonths, 60, 2};
  std::vector<int> csv_months;
  for (int m = kSeedMonths; m <= kTotalMonths; ++m) csv_months.push_back(m);

  // ---- set-up: generate, import, boot; repeated, the last one serves --
  std::vector<double> setup_seconds;
  std::vector<double> append_seconds;
  StoreWorld inputs;
  mic::trend::PipelineConfig config;
  std::unique_ptr<Daemon> daemon;
  std::string dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon != nullptr) {
      daemon.reset();
      RemoveTree(dir);
    }
    dir = options.work_dir + "/setup" + std::to_string(rep);
    const Clock::time_point start = Clock::now();
    auto built = BuildStoreWorld(world, options.seed, dir, kSeedMonths,
                                 csv_months, tracer, &append_seconds);
    if (!built.ok()) {
      result.Check(false, "set-up: " + built.status().ToString());
      return result;
    }
    inputs = *built;
    config = MakeConfig(inputs.store_dir, dir + "/cache");
    auto booted = Daemon::Boot(config);
    if (!booted.ok()) {
      result.Check(false, "daemon boot: " + booted.status().ToString());
      return result;
    }
    daemon = std::move(*booted);
    setup_seconds.push_back(SecondsSince(start));
  }
  // peak_rss_mb is the peak of the served phases alone.
  result.Check(ResetPeakRss(), "cannot reset the peak RSS counter");

  const QueryNames names = NamesFromSnapshot(daemon->service());
  result.Check(!names.medicines.empty() || !names.diseases.empty(),
               "first snapshot has no analyzed series to query");
  if (!result.correct()) return result;

  Tally tallies[kNumPhases];
  Tally control_tally;
  const serve::WireLimits limits = ClientLimits();
  Result<int> control = serve::ConnectTcp("127.0.0.1", daemon->port());
  if (!control.ok()) {
    result.Check(false, "control connection: " + control.status().ToString());
    return result;
  }
  auto fetch_report = [&]() -> std::string {
    const Result<serve::JsonValue> response =
        serve::RoundTrip(*control, Request("report_csv"), limits);
    control_tally.Add(Classify(response));
    if (!response.ok() || !response->GetBool("ok", false)) return {};
    const serve::JsonValue* data = response->Find("data");
    return data == nullptr ? std::string() : data->GetString("csv");
  };
  const std::string served_before = fetch_report();

  double handler_mix_p50_ms = 0.0;
  if (options.trace) {
    handler_mix_p50_ms = MeasureHandlers(daemon->service(), options.seed,
                                         names, tracer, result);
  }

  // ---- phase A: read-only load --------------------------------------
  // Traced, its first half runs without client spans and its second
  // half with them; the p50 difference is the tracing overhead.
  LoadState state;
  if (options.trace) state.phase.store(kPhaseAUntraced);
  Tracer untraced(false);
  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLoop(daemon->port(), options.seed, c, names, state, tracer,
                 untraced, samples[c]);
    });
  }
  const double phase_a_target = options.seconds / 2.0;
  if (options.trace) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(phase_a_target / 2.0));
    state.phase.store(kPhaseA);
  }
  const Clock::time_point phase_a_start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(
      options.trace ? phase_a_target / 2.0 : phase_a_target));
  const double phase_a_seconds = SecondsSince(phase_a_start);

  // ---- phase B: twelve live ingests under the same load ----------------
  state.phase.store(kPhaseB);
  std::vector<double> ingest_seconds;
  LedgerSamples ingest_samples;
  for (int months = kSeedMonths + 1; months <= kTotalMonths; ++months) {
    serve::JsonValue ingest = Request("ingest");
    ingest.Set("corpus", serve::JsonValue::String(inputs.corpus_csv[months]));
    ingest.Set("hospitals", serve::JsonValue::String(inputs.hospitals_csv));
    double seconds = 0.0;
    const RegistrySnapshot before(daemon->metrics());
    const Result<serve::JsonValue> response = tracer.Call(
        "serve.wire", "ingest",
        [&] { return serve::RoundTrip(*control, ingest, limits); }, &seconds);
    const Outcome outcome = Classify(response);
    control_tally.Add(outcome);
    const serve::JsonValue* data =
        outcome == Outcome::kOk ? response->Find("data") : nullptr;
    result.Check(data != nullptr && data->GetInt("appended", -1) == 1 &&
                     response->GetInt("months", -1) == months,
                 "ingest of month " + std::to_string(months - 1) + " failed");
    if (data == nullptr) break;
    ingest_seconds.push_back(seconds);
    ingest_samples.Add(
        IngestSample(RegistrySnapshot(daemon->metrics()) - before,
                     data->GetDouble("drain_seconds", 0.0)));
  }
  state.stop.store(true);
  for (std::thread& client : clients) client.join();

  const std::string served_after = fetch_report();
  close(*control);
  const Metric rss{"peak_rss_mb", "MiB", PeakRssMb(), Summary{},
                   "peak over phases A and B, after set-up"};
  const double overload_rejections =
      RegistrySnapshot(daemon->metrics()).Counter("serve.overload_rejections");
  daemon.reset();

  // ---- output checks: served bytes == offline twin, both ends ----------
  auto twins = OfflineTwins(inputs, config, dir + "/cache_offline");
  if (!twins.ok()) {
    result.Check(false, "offline twin: " + twins.status().ToString());
  } else {
    result.Check(!served_before.empty() &&
                     served_before == (*twins)[kSeedMonths],
                 "served report_csv differs from the offline twin before "
                 "the first ingest");
    result.Check(!served_after.empty() &&
                     served_after == (*twins)[kTotalMonths],
                 "served report_csv differs from the offline twin after "
                 "the last ingest");
  }

  // ---- metrics -----------------------------------------------------------
  std::vector<Sample> all;
  for (const auto& client : samples) {
    all.insert(all.end(), client.begin(), client.end());
  }
  for (const Sample& sample : all) tallies[sample.phase].Add(sample.outcome);
  result.attempted = control_tally.attempted;
  result.failed = control_tally.failed + control_tally.refused;
  for (const Tally& tally : tallies) {
    result.attempted += tally.attempted;
    result.failed += tally.failed + tally.refused;
  }
  if (options.trace) {
    result.notes.push_back(tallies[kPhaseAUntraced].ToString(
        "phase A queries, untraced half"));
  }
  result.notes.push_back(tallies[kPhaseA].ToString("phase A queries"));
  result.notes.push_back(tallies[kPhaseB].ToString("phase B queries"));
  result.notes.push_back(control_tally.ToString("control (report_csv, ingest)"));

  const std::vector<double> phase_a = PhaseLatencies(all, kPhaseA);
  const std::vector<double> phase_b = PhaseLatencies(all, kPhaseB);
  const Metric p50 = PercentileMetric("query_p50_ms", phase_a, 50);
  const Metric rps{
      "query_rps", "1/s",
      static_cast<double>(tallies[kPhaseA].succeeded) / phase_a_seconds,
      Summary{0.0, 0.0, 0.0,
              static_cast<std::size_t>(tallies[kPhaseA].succeeded)},
      "rate"};
  const Metric setup = TimedMetric("setup_s", "s", setup_seconds);
  result.named = {
      p50,
      PercentileMetric("query_p99_ms", phase_a, 99),
      rps,
      TimedMetric("ingest_s", "s", ingest_seconds),
      PercentileMetric("ingest_query_p95_ms", phase_b, 95),
      Metric{"error_share", "ratio",
             result.attempted > 0 ? static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted)
                                  : 0.0},
      setup, rss};
  if (!options.trace) {
    Metric op = p50;
    op.name = "op_p50_ms";
    Metric ops = rps;
    ops.name = "ops_per_s";
    result.end_to_end = {op, ops, setup, rss};
    return result;
  }

  // ---- the traced ledger: registry deltas per ingest -------------------
  // Ingests differ in work (each adds a month), so counts are means
  // over the twelve and only timings are medians.
  result.layers.merge(ingest_samples.Reduce(result, /*counts_repeat=*/false));
  result.layers["store.append_s"] =
      LedgerTiming("store.append_s", append_seconds);
  result.layers["serve.overload_rejections"] = LedgerValue(
      "serve.overload_rejections", overload_rejections, "daemon total");
  result.layers["serve.transport_gap_ms"] = LedgerValue(
      "serve.transport_gap_ms", p50.value - handler_mix_p50_ms,
      "client p50 (n=" + std::to_string(p50.summary.n) +
          ") - in-process handler median over the same mix");
  result.notes.push_back("handler median over the mix " +
                         std::to_string(handler_mix_p50_ms) +
                         " ms vs client p50 " + std::to_string(p50.value) +
                         " ms");
  const double untraced_p50 =
      Percentile(PhaseLatencies(all, kPhaseAUntraced), 0.5);
  result.notes.push_back("tracing overhead: traced p50 " +
                         std::to_string(p50.value) + " ms - untraced p50 " +
                         std::to_string(untraced_p50) + " ms");
  result.Check(tracer.WriteJson(options.spans_path, "serve", options.seed,
                                {{"traced_query_p50_s", p50.value / 1e3},
                                 {"untraced_query_p50_s", untraced_p50 / 1e3},
                                 {"overhead_s",
                                  (p50.value - untraced_p50) / 1e3}}),
               "cannot write " + options.spans_path);
  result.notes.push_back("spans (" + std::to_string(tracer.num_spans()) +
                         ") written to " + options.spans_path);
  return result;
}

}  // namespace perfbench
