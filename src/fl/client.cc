#include "src/fl/client.h"

#include "src/common/rng.h"
#include "src/data/dirichlet.h"

namespace floatfl {

Client::Client(size_t id, ClientShard shard, ComputeTrace compute, NetworkTrace network,
               AvailabilityTrace availability, InterferenceModel interference)
    : id_(id),
      shard_(std::move(shard)),
      compute_(std::move(compute)),
      network_(std::move(network)),
      availability_(std::move(availability)),
      interference_(std::move(interference)) {}

std::vector<Client> BuildPopulation(const DatasetSpec& spec, size_t num_clients, double alpha,
                                    InterferenceScenario interference, uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientShard> shards = PartitionDataset(spec, num_clients, alpha, rng);
  std::vector<Client> clients;
  clients.reserve(num_clients);
  for (size_t i = 0; i < num_clients; ++i) {
    const NetworkKind kind = rng.Bernoulli(0.3) ? NetworkKind::kFiveG : NetworkKind::kFourG;
    clients.emplace_back(i, std::move(shards[i]), ComputeTrace::SampleDevice(rng.NextU64()),
                         NetworkTrace(kind, rng.NextU64()), AvailabilityTrace(rng.NextU64()),
                         InterferenceModel(interference, rng.NextU64()));
  }
  return clients;
}

}  // namespace floatfl
