#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench_util.h"
#include "turboflux/obs/stats.h"

namespace perfbench {

// Each workload builds its inputs from opt.seed, runs, checks its outputs
// against references computed apart from the system under test, and
// returns every end-to-end metric. With tracing on it also records spans
// into `tracer` and per-layer counters into `layers`.

RunReport RunNetflowEngine(const RunOptions& opt, Tracer& tracer,
                           turboflux::obs::StatsSnapshot& layers);

RunReport RunChurnTcp(const RunOptions& opt, Tracer& tracer,
                      turboflux::obs::StatsSnapshot& layers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
