// perfbench_selftest <checkout-root> <out-dir>: the benchmark's own
// tests.
//
//   1. Quartiles match Python's statistics.quantiles(n=4).
//   2. BENCHMARK.json, perfbench/ledger.json and the binary agree on the
//      workloads, the end-to-end metric names, the ledger schema (names
//      and units) and the layer names.
//   3. Delay injection: on a small traced cold_pipeline, a delay the
//      harness injects around one layer's entry-point call shows up in
//      that layer's timing metric and in the end-to-end pipeline time,
//      and in no other layer's timing metric. The margins assume the
//      optimized build, where the small pipeline's own run-to-run
//      variation is far below the injected second; sanitizer builds are
//      too slow and noisy for this check.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "serve/wire.h"
#include "src/ledger.h"
#include "src/workloads.h"
#include "src/world.h"

namespace perfbench {
namespace {

int g_checks = 0;
int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

mic::Result<mic::serve::JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return mic::Status::IoError("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  return mic::serve::JsonValue::Parse(text.str());
}

void TestQuartiles() {
  const Summary ten = Summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  Expect(Near(ten.median, 5.5) && Near(ten.q1, 2.75) && Near(ten.q3, 8.25) &&
             ten.n == 10,
         "quartiles of 1..10 are 2.75 / 5.5 / 8.25");
  const Summary five = Summarize({1, 2, 3, 4, 5});
  Expect(Near(five.median, 3.0) && Near(five.q1, 1.5) && Near(five.q3, 4.5),
         "quartiles of 1..5 are 1.5 / 3 / 4.5");
  const Summary one = Summarize({7});
  Expect(Near(one.median, 7) && Near(one.q1, 7) && Near(one.q3, 7),
         "a single sample is its own median and quartiles");
  Expect(Near(Percentile({1, 2, 3, 4}, 0.5), 2) &&
             Near(Percentile({1, 2, 3, 4}, 0.99), 4),
         "nearest-rank percentiles");
}

void TestSchema(const std::string& root,
                const std::vector<Metric>& emitted_end_to_end) {
  auto bench = ReadJson(root + "/BENCHMARK.json");
  auto ledger = ReadJson(root + "/perfbench/ledger.json");
  Expect(bench.ok(), "BENCHMARK.json parses");
  Expect(ledger.ok(), "perfbench/ledger.json parses");
  if (!bench.ok() || !ledger.ok()) return;

  const auto& per_layer = bench->Find("per_layer")->items();
  const auto& schema = LedgerSchema();
  Expect(per_layer.size() == schema.size(),
         "BENCHMARK.json per_layer lists every ledger metric");
  for (std::size_t i = 0; i < std::min(per_layer.size(), schema.size());
       ++i) {
    Expect(per_layer[i].GetString("name") == schema[i].first &&
               per_layer[i].GetString("unit") == schema[i].second,
           "per_layer[" + std::to_string(i) + "] is " + schema[i].first +
               " [" + schema[i].second + "]");
  }

  std::set<std::string> declared;
  for (const auto& metric : bench->Find("end_to_end")->items()) {
    declared.insert(metric.GetString("name"));
  }
  std::set<std::string> emitted;
  for (const Metric& metric : emitted_end_to_end) emitted.insert(metric.name);
  Expect(declared == emitted,
         "the untraced run emits exactly BENCHMARK.json's end_to_end");

  std::set<std::string> workloads;
  for (const auto& workload : bench->Find("workloads")->items()) {
    workloads.insert(workload.GetString("name"));
  }
  std::set<std::string> documented;
  for (const auto& [name, value] : ledger->Find("workloads")->members()) {
    documented.insert(name);
  }
  Expect(workloads == documented,
         "ledger.json documents exactly the benchmark's workloads");

  const mic::serve::JsonValue* named = ledger->Find("named_metrics");
  std::set<std::string> layers;
  for (const auto& [name, unit] : schema) layers.insert(LayerOf(name));
  std::set<std::string> mapped;
  for (const auto& [layer, entry] : ledger->Find("layers")->members()) {
    mapped.insert(layer);
    for (const char* key : {"moves", "bypass"}) {
      for (const auto& name : entry.Find(key)->items()) {
        Expect(named->Find(name.string_value()) != nullptr,
               layer + " " + key + " names a known metric: " +
                   name.string_value());
      }
    }
  }
  Expect(layers == mapped,
         "ledger.json maps exactly the layers the ledger reports");
}

double ToSeconds(double value, const std::string& unit) {
  if (unit == "s") return value;
  if (unit == "ms") return value * 1e-3;
  if (unit == "us") return value * 1e-6;
  if (unit == "ns") return value * 1e-9;
  return NAN;  // not a timing
}

double Named(const WorkloadResult& result, const std::string& name) {
  for (const Metric& metric : result.named) {
    if (metric.name == name) return metric.value;
  }
  return NAN;
}

void TestDelayInjection(const std::string& out_dir,
                        std::vector<Metric>* untraced_end_to_end) {
  constexpr double kDelay = 1.0;
  RunOptions base;
  base.workload = "cold_pipeline";
  base.seed = 7;
  base.seconds = 0.001;  // one operation
  base.small = true;
  base.work_dir = out_dir + "/selftest-run";
  base.spans_path = out_dir + "/selftest-spans.json";

  const WorkloadResult untraced = RunColdPipeline(base);
  Expect(untraced.correct(), "small untraced cold_pipeline passes its checks");
  *untraced_end_to_end = untraced.end_to_end;

  base.trace = true;
  const WorkloadResult reference = RunColdPipeline(base);
  Expect(reference.correct(), "small traced cold_pipeline passes its checks");
  auto spans = ReadJson(base.spans_path);
  Expect(spans.ok() && !spans->Find("spans")->items().empty(),
         "the traced run writes its spans");

  const struct {
    const char* call;
    const char* layer;
    const char* metric;
  } kProbes[] = {
      {"ClaimStore::OpenWorld", "store", "store.open_world_s"},
      {"medmodel::ReproduceSeries", "medmodel", "em.reproduce_s"},
      {"TrendAnalyzer::AnalyzeAll", "trend.sweep", "sweep.analyze_all_s"},
      {"trend::BuildDrillDown", "trend.drilldown", "drill.build_s"},
  };
  for (const auto& probe : kProbes) {
    RunOptions options = base;
    options.inject_call = probe.call;
    options.inject_seconds = kDelay;
    const WorkloadResult slowed = RunColdPipeline(options);
    const std::string tag = std::string("delay in ") + probe.call + ": ";
    Expect(slowed.correct(), tag + "output checks still pass");
    const double layer_delta = slowed.layers.at(probe.metric).value -
                               reference.layers.at(probe.metric).value;
    Expect(layer_delta > 0.8 * kDelay,
           tag + probe.metric + " grew by " + std::to_string(layer_delta));
    const double e2e_delta =
        Named(slowed, "pipeline_s") - Named(reference, "pipeline_s");
    Expect(e2e_delta > 0.8 * kDelay,
           tag + "pipeline_s grew by " + std::to_string(e2e_delta));
    for (const auto& [name, unit] : LedgerSchema()) {
      auto value = [&](const WorkloadResult& result) {
        auto it = result.layers.find(name);
        return ToSeconds(it == result.layers.end() ? 0.0 : it->second.value,
                         unit);
      };
      const double delta = value(slowed) - value(reference);
      if (std::isnan(delta) || LayerOf(name) == probe.layer) continue;
      Expect(std::fabs(delta) < 0.5 * kDelay,
             tag + "other layer's " + name + " moved by " +
                 std::to_string(delta) + " s");
    }
  }
  RemoveTree(base.work_dir);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_selftest <checkout-root> <out-dir>\n");
    return 2;
  }
  std::vector<perfbench::Metric> end_to_end;
  perfbench::TestQuartiles();
  perfbench::TestDelayInjection(argv[2], &end_to_end);
  perfbench::TestSchema(argv[1], end_to_end);
  std::printf("perfbench_selftest: %d checks, %d failed\n",
              perfbench::g_checks, perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
