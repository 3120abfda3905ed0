// The benchmark's workloads. Each builds its inputs from options.seed,
// measures for options.seconds, checks its outputs, and returns either
// the end-to-end metrics (untraced) or the per-layer ledger (traced).

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "src/ledger.h"

namespace perfbench {

/// One cold trend::RunPipelineFromStore per operation over the 43-month
/// smoke world (Algorithm 2, seasonal, medicine drill-down, 4 threads).
WorkloadResult RunColdPipeline(const RunOptions& options);

/// One ClaimStore::OpenWorld + medmodel::ReproduceSeries per operation
/// over the default 2,000-patient world (1 thread, cache off).
WorkloadResult RunEmReproduce(const RunOptions& options);

/// An in-process serve::TcpServer under 4 closed-loop clients: a
/// read-only phase, then twelve live monthly ingests under the same
/// query load.
WorkloadResult RunServe(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
