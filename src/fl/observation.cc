#include "src/fl/observation.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace floatfl {

PopulationReference ComputePopulationReference(const std::vector<Client>& clients) {
  FLOATFL_CHECK(!clients.empty());
  std::vector<double> gflops;
  std::vector<double> mbps;
  std::vector<double> mem;
  gflops.reserve(clients.size());
  mbps.reserve(clients.size());
  mem.reserve(clients.size());
  for (const Client& client : clients) {
    gflops.push_back(client.compute().BaseGflops());
    mbps.push_back(client.network().NominalMbps());
    mem.push_back(client.compute().MemoryGb());
  }
  PopulationReference ref;
  ref.gflops = std::max(1e-9, Percentile(gflops, 50.0));
  ref.mbps = std::max(1e-9, Percentile(mbps, 50.0));
  ref.memory_gb = std::max(1e-9, Percentile(mem, 50.0));
  return ref;
}

ClientObservation ObserveClient(Client& client, double now_s, const PopulationReference& ref) {
  (void)ref;
  const ResourceAvailability avail = client.interference().At(now_s);
  ClientObservation obs;
  obs.cpu_avail = avail.cpu;
  obs.net_avail = avail.network;
  obs.mem_avail = avail.memory;
  obs.deadline_diff = client.last_deadline_diff;
  return obs;
}

void CountDropout(DropoutReason reason, DropoutBreakdown& breakdown) {
  switch (reason) {
    case DropoutReason::kUnavailable:
      ++breakdown.unavailable;
      break;
    case DropoutReason::kOutOfMemory:
      ++breakdown.out_of_memory;
      break;
    case DropoutReason::kMissedDeadline:
      ++breakdown.missed_deadline;
      break;
    case DropoutReason::kDeparted:
      ++breakdown.departed;
      break;
    case DropoutReason::kCrashed:
      ++breakdown.crashed;
      break;
    case DropoutReason::kCorrupted:
      ++breakdown.corrupted;
      break;
    case DropoutReason::kRejected:
      ++breakdown.rejected;
      break;
    case DropoutReason::kTransferTimedOut:
      ++breakdown.transfer_timed_out;
      break;
    case DropoutReason::kEdgeOrphaned:
      ++breakdown.edge_orphaned;
      break;
    case DropoutReason::kShed:
      ++breakdown.shed;
      break;
    case DropoutReason::kDuplicate:
      ++breakdown.duplicate;
      break;
    case DropoutReason::kReplayed:
      ++breakdown.replayed;
      break;
    case DropoutReason::kRateLimited:
      ++breakdown.rate_limited;
      break;
    case DropoutReason::kBackupCovered:
      ++breakdown.backup_covered;
      break;
    case DropoutReason::kBackupRedundant:
      ++breakdown.backup_redundant;
      break;
    case DropoutReason::kNone:
      break;
  }
}

}  // namespace floatfl
