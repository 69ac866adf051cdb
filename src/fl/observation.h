// Builds the agent-facing client observation (Table 1 "Runtime Variance").
//
// Following Table 1, S_CPU / S_MEM / S_Network are the *fractions* of each
// resource available to FL training (what on-device interference leaves
// over). A fraction alone does not reveal absolute adequacy — a budget
// phone with 80 % of its CPU free still has less capacity than a flagship
// at 40 % — which is exactly the gap the deadline-difference human feedback
// closes (RQ4): chronic stragglers reveal themselves through their typical
// deadline overshoot. The Figure-11 ablation hinges on this split.
#ifndef SRC_FL_OBSERVATION_H_
#define SRC_FL_OBSERVATION_H_

#include <vector>

#include "src/fl/client.h"
#include "src/fl/experiment.h"
#include "src/fl/tuning_policy.h"

namespace floatfl {

struct PopulationReference {
  double gflops = 1.0;
  double mbps = 1.0;
  double memory_gb = 1.0;
};

// Population medians of base device capability (computed once per run).
PopulationReference ComputePopulationReference(const std::vector<Client>& clients);

// Snapshot of one client's Table-1 state at time `now_s`: raw availability
// fractions plus its typical deadline difference (the human-feedback
// signal).
ClientObservation ObserveClient(Client& client, double now_s, const PopulationReference& ref);

// Tallies one dropout reason into the breakdown (kNone is a no-op). The one
// place the reason -> counter mapping lives; every engine routes through it.
void CountDropout(DropoutReason reason, DropoutBreakdown& breakdown);

}  // namespace floatfl

#endif  // SRC_FL_OBSERVATION_H_
