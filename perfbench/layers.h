// Direct calls into the src/ layers at a workload's shapes, timed from
// outside: trace queries, population build, the surrogate model, the lossy
// transport, admission, aggregation, the nn kernels, the upload transforms,
// and real-engine evaluation.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {

// Adds one entry per probed metric (names as in BENCHMARK.json) to
// `metrics`. Each probe stops after about `budget_s / 10` seconds.
void ProbeLayers(const Workload& workload, double budget_s, std::map<std::string, double>* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
