// geacc_bench: runs one GEACC benchmark workload and prints its
// result. Usually started through perfbench/run.py, which builds it first:
//
//   geacc_bench --workload batch --seed 1 --seconds 30 --trace 0
//
// Human-readable lines (results under the workload's own names, machine
// context, failed checks) come first; the last line of stdout is one JSON
// object {correct, attempted, failed, metrics}. Untraced runs report every
// end-to-end metric of BENCHMARK.json, traced runs every per-layer metric.
// The exit code is 0 iff every output check passed.

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "obs/json.h"
#include "util/flags.h"
#include "workloads.h"

namespace {

using geacc::obs::JsonValue;

bool LoadJson(const std::string& path, JsonValue* value) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  if (!JsonValue::Parse(text.str(), value, &error)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

// "moves fast_path_ms (greedy_solve_s) on batch; flat on exact" for a
// per-layer metric, from perfbench/layers.json.
std::string Mapping(const JsonValue& layers, const std::string& name) {
  const JsonValue* entry = nullptr;
  if (const JsonValue* per_layer = layers.Find("per_layer")) {
    entry = per_layer->Find(name);
  }
  if (entry == nullptr) return "";
  std::string text;
  if (const JsonValue* moves = entry->Find("moves")) {
    for (const JsonValue& move : moves->items()) {
      text += text.empty() ? "moves " : ", ";
      text += move.Find("metric")->AsString() + " (" +
              move.Find("as")->AsString() + ") on " +
              move.Find("workload")->AsString();
    }
  }
  if (const JsonValue* flat = entry->Find("flat_on")) {
    std::string flat_text;
    for (const JsonValue& workload : flat->items()) {
      flat_text += (flat_text.empty() ? "" : ", ") + workload.AsString();
    }
    if (!flat_text.empty()) text += "; flat on " + flat_text;
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string scale = "full";
  std::string fault;
  std::string workdir = ".bench_build/run";
  // Both relative to the checkout root, where run.py starts this program.
  const std::string spec_path = "BENCHMARK.json";
  const std::string layers_path = "perfbench/layers.json";

  geacc::FlagSet flags;
  flags.AddString("workload", &workload,
                  "batch | exact | serve-write");
  flags.AddInt("seed", &seed, "input seed");
  flags.AddDouble("seconds", &seconds, "how long the run measures");
  flags.AddInt("trace", &trace, "1 = traced run reporting per-layer metrics");
  flags.AddString("scale", &scale, "full | tiny (smoke-test sizes)");
  flags.AddString("fault", &fault,
                  "inject a defect: infeasible-pair | recovered-state");
  flags.AddString("workdir", &workdir, "scratch directory for this run");
  flags.Parse(argc, argv);

  JsonValue spec;
  if (!LoadJson(spec_path, &spec)) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", spec_path.c_str());
    return 2;
  }
  JsonValue layers = JsonValue::Object();
  LoadJson(layers_path, &layers);

  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace != 0;
  options.tiny = scale == "tiny";
  options.fault = fault;
  options.workdir = workdir;
  if (scale != "full" && scale != "tiny") {
    std::fprintf(stderr, "perfbench: unknown --scale '%s'\n", scale.c_str());
    return 2;
  }
  if (!fault.empty() && fault != "infeasible-pair" &&
      fault != "recovered-state") {
    std::fprintf(stderr, "perfbench: unknown --fault '%s'\n", fault.c_str());
    return 2;
  }
  ::mkdir(workdir.c_str(), 0755);

  perfbench::Outcome out;
  out.context = perfbench::MachineContext();
  if (workload == "batch") {
    perfbench::RunBatch(options, &out);
  } else if (workload == "exact") {
    perfbench::RunExact(options, &out);
  } else if (workload == "serve-write") {
    perfbench::RunServeWrite(options, &out);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  out.context.Set("load_avg_after", perfbench::LoadAverage());

  std::printf("perfbench workload=%s seed=%lld seconds=%g trace=%d scale=%s\n",
              workload.c_str(), static_cast<long long>(seed), seconds, trace,
              scale.c_str());
  for (const perfbench::Outcome::Row& row : out.report) {
    std::printf("  %-24s %.6g %s (%s is better)\n", row.name.c_str(),
                row.value, row.unit.c_str(), row.better.c_str());
  }
  std::printf("context %s\n", out.context.Dump().c_str());
  for (const std::string& failure : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  // The reported metrics are exactly the ones BENCHMARK.json names: the
  // end-to-end list untraced, the per-layer list traced. A per-layer
  // metric the workload does not exercise reads 0.
  const JsonValue* wanted =
      spec.Find(options.trace ? "per_layer" : "end_to_end");
  if (wanted == nullptr) {
    std::fprintf(stderr, "perfbench: %s lists no metrics\n", spec_path.c_str());
    return 2;
  }
  JsonValue metrics = JsonValue::Object();
  for (const JsonValue& metric : wanted->items()) {
    const std::string name = metric.Find("name")->AsString();
    const auto it = out.values.find(name);
    if (it == out.values.end() && !options.trace) {
      std::fprintf(stderr, "perfbench: workload %s did not measure %s\n",
                   workload.c_str(), name.c_str());
      return 2;
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("value", it == out.values.end() ? 0.0 : it->second);
    entry.Set("unit", metric.Find("unit")->AsString());
    metrics.Set(name, entry);
    if (options.trace) {
      std::printf("  %-30s %.6g %s  %s\n", name.c_str(),
                  it == out.values.end() ? 0.0 : it->second,
                  metric.Find("unit")->AsString().c_str(),
                  Mapping(layers, name).c_str());
    }
  }

  JsonValue result = JsonValue::Object();
  result.Set("correct", out.correct());
  result.Set("attempted", out.attempted);
  result.Set("failed", out.failed);
  result.Set("metrics", metrics);
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
