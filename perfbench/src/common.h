// Shared pieces of the GEACC benchmark program: run options, the outcome a
// workload fills in, in-memory span tracing, machine context and small
// statistics helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/stats.h"
#include "util/timer.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke-test sizes: every workload finishes in a second or two.
  bool tiny = false;
  // Deliberate defect for the smoke test: "infeasible-pair" adds a pair
  // that breaks capacity to one solve's arrangement before its audit;
  // "recovered-state" applies one extra write to the restarted server
  // before its state is compared.
  std::string fault;
  // Per-run scratch directory (WAL, checkpoints, spans, server logs).
  std::string workdir;
};

// What one workload run produced. `values` feeds the final JSON line
// (end-to-end metrics untraced, per-layer metrics traced); `report` holds
// the same results under the workload's own names for the human-readable
// lines above it.
struct Outcome {
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string better;
  };

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> values;
  std::vector<Row> report;
  geacc::obs::JsonValue context = geacc::obs::JsonValue::Object();

  bool correct() const { return check_failures.empty(); }
  // Records `what` as a failed output check unless `ok`.
  void Check(bool ok, const std::string& what);
  void Report(const std::string& name, double value, const std::string& unit,
              const std::string& better);
};

// In-memory span recorder for the traced run. A span opened while another
// is open becomes its child. Spans whose name starts with "e2e." reproduce
// end-to-end work; their direct children are the layer calls that should
// cover it. Every other root span is a probe: a call into one layer's
// public entry point on the same inputs, timed on its own.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;
  };

  void Run(const std::string& name, const std::function<void()>& fn);

  // Like Run, and returns the program's own obs activity over the call
  // (this thread only). Its phase timers are recorded as child spans, laid
  // end to end from the span's start since only their durations are known.
  geacc::obs::StatsSnapshot RunObserved(const std::string& name,
                                        const std::function<void()>& fn);

  // Summed duration of every span named `name`.
  double Total(const std::string& name) const;
  // Summed duration of the "e2e." spans.
  double EndToEndTotal() const;
  // Share of the "e2e." spans' time that none of their children covers.
  double UnattributedShare() const;

  // Writes every span as one JSON array ({name, start, end, parent}).
  bool Write(const std::string& path) const;

 private:
  int Open(const std::string& name);
  void Close(int id);

  std::vector<Span> spans_;
  std::vector<int> open_;
  geacc::WallTimer clock_;
};

// Runs `fn` inside a span of `tracer`, or just runs it when `tracer` is null
// (the untraced pass that the overhead share is measured against).
void Traced(Tracer* tracer, const std::string& name,
            const std::function<void()>& fn);

// Sums counter `name` over snapshots; 0 when absent.
int64_t Counter(const geacc::obs::StatsSnapshot& stats,
                const std::string& name);
// Adds every counter and timer of `delta` into `total`.
void Accumulate(const geacc::obs::StatsSnapshot& delta,
                geacc::obs::StatsSnapshot* total);

double Median(std::vector<double> values);
// times[pass][item] -> the sum over items of each item's median pass.
double SumOfMedians(const std::vector<std::vector<double>>& times);

// The host's speed over a run, read from a fixed reference computation
// timed between passes of the measured work, so that the gated times can
// be reported at one reference speed. On a shared 4-vCPU VM (NOTES.md) the
// same solve runs in a fast mode or one 1.3 to 1.7 times slower, switching
// within seconds or holding for minutes; the reference computation,
// written here and calling nothing in src/, slows with it.
class ReferenceClock {
 public:
  // The reference computation's median time on that VM, the speed the
  // gated times are reported at.
  static constexpr double kReferenceSeconds = 0.07;

  ReferenceClock();
  // Runs the reference computation once (about 0.07 s) and keeps its time.
  void Sample();
  // Median time of the samples so far; 0 when there is none.
  double MedianSeconds() const;
  // `seconds` measured during this run, at the reference speed.
  double AtReferenceSpeed(double seconds) const;

 private:
  // A fixed random graph in CSR form for the shortest-path half.
  std::vector<int> offsets_;
  std::vector<int> heads_;
  std::vector<double> weights_;
  std::vector<double> samples_;
};
// Nearest-rank percentile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
// The q-quantile if at least ten samples lie beyond it, else the highest
// quantile that leaves ten beyond it (the median when there are fewer than
// twenty samples). Sets *used to the quantile actually taken.
double TailQuantile(const std::vector<double>& values, double q,
                    double* used);
double SafeRatio(double num, double den);

// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double PeakRssMiB(pid_t pid = 0);
// Process CPU time (user + system) of this process, in seconds.
double ProcessCpuSeconds();

// CPU model, nproc, affinity, load average and SIMD level.
geacc::obs::JsonValue MachineContext();
// 1-minute load average.
double LoadAverage();

// Deterministic per-purpose seed derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
