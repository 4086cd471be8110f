#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <queue>
#include <utility>

#include "simd/simd.h"
#include "util/rng.h"

namespace perfbench {

using geacc::obs::JsonValue;
using geacc::obs::StatsSnapshot;

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

void Outcome::Report(const std::string& name, double value,
                     const std::string& unit, const std::string& better) {
  report.push_back({name, value, unit, better});
}

int Tracer::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.start = clock_.Seconds();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  spans_[id].end = clock_.Seconds();
  open_.pop_back();
}

void Tracer::Run(const std::string& name, const std::function<void()>& fn) {
  const int id = Open(name);
  fn();
  Close(id);
}

StatsSnapshot Tracer::RunObserved(const std::string& name,
                                  const std::function<void()>& fn) {
  const int id = Open(name);
  const geacc::obs::StatsScope scope;
  fn();
  StatsSnapshot delta = scope.Harvest();
  Close(id);
  double cursor = spans_[id].start;
  for (const auto& [timer, stat] : delta.timers) {
    Span child;
    child.name = timer;
    child.start = cursor;
    child.end = cursor + stat.seconds;
    child.parent = id;
    cursor = child.end;
    spans_.push_back(std::move(child));
  }
  return delta;
}

double Tracer::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

namespace {

bool IsEndToEnd(const Tracer::Span& span) {
  return span.parent < 0 && span.name.rfind("e2e.", 0) == 0;
}

}  // namespace

double Tracer::EndToEndTotal() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (IsEndToEnd(span)) total += span.end - span.start;
  }
  return total;
}

double Tracer::UnattributedShare() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) covered[span.parent] += span.end - span.start;
  }
  double total = 0.0;
  double uncovered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!IsEndToEnd(spans_[i])) continue;
    const double duration = spans_[i].end - spans_[i].start;
    total += duration;
    uncovered += std::max(0.0, duration - covered[i]);
  }
  return SafeRatio(uncovered, total);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d}%s\n",
                 span.name.c_str(), span.start, span.end, span.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

void Traced(Tracer* tracer, const std::string& name,
            const std::function<void()>& fn) {
  if (tracer == nullptr) {
    fn();
  } else {
    tracer->Run(name, fn);
  }
}

int64_t Counter(const StatsSnapshot& stats, const std::string& name) {
  const auto it = stats.counters.find(name);
  return it == stats.counters.end() ? 0 : it->second;
}

void Accumulate(const StatsSnapshot& delta, StatsSnapshot* total) {
  for (const auto& [name, value] : delta.counters) {
    total->counters[name] += value;
  }
  for (const auto& [name, stat] : delta.timers) {
    total->timers[name].seconds += stat.seconds;
    total->timers[name].count += stat.count;
  }
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double SumOfMedians(const std::vector<std::vector<double>>& times) {
  double total = 0.0;
  for (size_t item = 0; !times.empty() && item < times.front().size();
       ++item) {
    std::vector<double> samples;
    for (const std::vector<double>& pass : times) samples.push_back(pass[item]);
    total += Median(std::move(samples));
  }
  return total;
}

namespace {

uint64_t XorShift(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

// Best value of items[i..] into `room`, pruned by the suffix sums of values.
int KnapsackBest(const std::vector<int>& weight, const std::vector<int>& value,
                 const std::vector<int>& suffix, size_t i, int room, int sum,
                 int best) {
  if (sum + suffix[i] <= best) return best;
  if (i == weight.size()) return sum;
  if (weight[i] <= room) {
    best = KnapsackBest(weight, value, suffix, i + 1, room - weight[i],
                        sum + value[i], best);
  }
  return KnapsackBest(weight, value, suffix, i + 1, room, sum, best);
}

}  // namespace

// The two halves are the kinds of work the solvers do: heap-driven
// shortest paths over arrays of about 1 MiB (MinCostFlow's sweep) and
// branchy recursion over small tables (Prune-GEACC, slot-exact).
constexpr int kReferenceNodes = 4000;
constexpr int kReferenceDegree = 24;
constexpr int kReferenceSources = 12;
constexpr int kReferenceItems = 26;

ReferenceClock::ReferenceClock() {
  uint64_t state = 0x9E3779B97F4A7C15ull;
  offsets_.push_back(0);
  for (int node = 0; node < kReferenceNodes; ++node) {
    for (int k = 0; k < kReferenceDegree; ++k) {
      heads_.push_back(static_cast<int>(XorShift(&state) % kReferenceNodes));
      weights_.push_back(static_cast<double>(XorShift(&state) % 1000000) /
                         1e6);
    }
    offsets_.push_back(static_cast<int>(heads_.size()));
  }
}

void ReferenceClock::Sample() {
  const geacc::WallTimer clock;
  double checksum = 0.0;
  std::vector<double> distance(kReferenceNodes);
  std::vector<char> settled(kReferenceNodes);
  using Entry = std::pair<double, int>;
  for (int source = 0; source < kReferenceSources; ++source) {
    std::fill(distance.begin(), distance.end(), 1e300);
    std::fill(settled.begin(), settled.end(), 0);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
    distance[source] = 0.0;
    queue.emplace(0.0, source);
    while (!queue.empty()) {
      const auto [dist, node] = queue.top();
      queue.pop();
      if (settled[node]) continue;
      settled[node] = 1;
      checksum += dist;
      for (int arc = offsets_[node]; arc < offsets_[node + 1]; ++arc) {
        const int head = heads_[arc];
        const double candidate = dist + weights_[arc];
        if (!settled[head] && candidate < distance[head]) {
          distance[head] = candidate;
          queue.emplace(candidate, head);
        }
      }
    }
  }
  uint64_t state = 12345;
  std::vector<int> weight(kReferenceItems);
  std::vector<int> value(kReferenceItems);
  std::vector<int> suffix(kReferenceItems + 1, 0);
  for (int i = 0; i < kReferenceItems; ++i) {
    weight[i] = 10 + static_cast<int>(XorShift(&state) % 40);
    value[i] = weight[i] + static_cast<int>(XorShift(&state) % 7);
  }
  for (int i = kReferenceItems - 1; i >= 0; --i) {
    suffix[i] = suffix[i + 1] + value[i];
  }
  checksum += KnapsackBest(weight, value, suffix, 0, 300, 0, 0);
  // Keeps the work from being optimised away.
  if (checksum < 0.0) std::fprintf(stderr, "%g\n", checksum);
  samples_.push_back(clock.Seconds());
}

double ReferenceClock::MedianSeconds() const { return Median(samples_); }

double ReferenceClock::AtReferenceSpeed(double seconds) const {
  return seconds * kReferenceSeconds / MedianSeconds();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailQuantile(const std::vector<double>& values, double q,
                    double* used) {
  const double n = static_cast<double>(values.size());
  double taken = q;
  if (n * (1.0 - q) < 10.0) taken = std::max(0.5, 1.0 - 10.0 / n);
  if (used != nullptr) *used = taken;
  return Quantile(values, taken);
}

double SafeRatio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

double PeakRssMiB(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one_minute = 0.0;
  in >> one_minute;
  return one_minute;
}

JsonValue MachineContext() {
  JsonValue context = JsonValue::Object();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  context.Set("cpu_model", model);
  context.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string affinity;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &set)) continue;
      if (!affinity.empty()) affinity += ",";
      affinity += std::to_string(cpu);
    }
  }
  context.Set("affinity", affinity);
  context.Set("simd", geacc::simd::LevelName(geacc::simd::ActiveLevel()));
  context.Set("load_avg_before", LoadAverage());
  return context;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + stream;
  return geacc::SplitMix64(state);
}

}  // namespace perfbench
