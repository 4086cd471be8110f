// The benchmark's workloads. Each generates its inputs from the run seed,
// drives the program through its public entry points, checks the outputs,
// and fills an Outcome: end-to-end metrics when untraced, per-layer
// metrics when traced (see perfbench/layers.json for what each means).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunBatch(const RunOptions& options, Outcome* out);
void RunExact(const RunOptions& options, Outcome* out);
void RunServeWrite(const RunOptions& options, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
