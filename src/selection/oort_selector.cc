#include "src/selection/oort_selector.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/fl/client.h"

namespace floatfl {

OortSelector::OortSelector(uint64_t seed, size_t num_clients, Params params)
    : rng_(seed),
      params_(params),
      utility_(num_clients, 0.0),
      explored_(num_clients, false),
      failures_(num_clients, 0),
      net_factor_(num_clients, 1.0) {}

std::vector<size_t> OortSelector::Select(size_t round, double now_s, size_t k,
                                         std::vector<Client>& clients) {
  FLOATFL_CHECK(clients.size() == utility_.size());
  // Oort checks in clients that are currently available, minus blacklisted
  // and failure-cooldown clients.
  std::vector<size_t> available;
  for (auto& client : clients) {
    if (client.availability().IsAvailableAt(now_s) && !IsBlacklisted(client.id()) &&
        client.cooldown_until_round <= round) {
      available.push_back(client.id());
    }
  }
  if (available.empty()) {
    return {};
  }

  std::vector<size_t> selected;
  selected.reserve(k);
  std::vector<bool> taken(clients.size(), false);

  // Exploration slice: uniformly among never-explored available clients.
  const size_t explore_target =
      static_cast<size_t>(std::ceil(params_.exploration * static_cast<double>(k)));
  std::vector<size_t> unexplored;
  for (size_t id : available) {
    if (!explored_[id]) {
      unexplored.push_back(id);
    }
  }
  {
    const std::vector<size_t> order = rng_.Permutation(unexplored.size());
    for (size_t i = 0; i < order.size() && selected.size() < explore_target; ++i) {
      const size_t id = unexplored[order[i]];
      selected.push_back(id);
      taken[id] = true;
    }
  }

  // Exploitation slice: highest-utility explored clients. Initial utility
  // for explored clients is their data size (statistical-utility proxy).
  std::vector<size_t> ranked;
  for (size_t id : available) {
    if (!taken[id] && explored_[id]) {
      ranked.push_back(id);
    }
  }
  // Rank by utility deflated to the bandwidth the client actually delivers
  // (net_factor_ is exactly 1.0 without transfer feedback, so the product —
  // and the sort order — is bit-identical to plain utility then).
  std::sort(ranked.begin(), ranked.end(), [this](size_t a, size_t b) {
    return utility_[a] * net_factor_[a] > utility_[b] * net_factor_[b];
  });
  for (size_t id : ranked) {
    if (selected.size() >= k) {
      break;
    }
    selected.push_back(id);
    taken[id] = true;
  }
  // Backfill with random available clients if still short (early rounds).
  if (selected.size() < k) {
    const std::vector<size_t> order = rng_.Permutation(available.size());
    for (size_t i = 0; i < order.size() && selected.size() < k; ++i) {
      const size_t id = available[order[i]];
      if (!taken[id]) {
        selected.push_back(id);
        taken[id] = true;
      }
    }
  }

  for (size_t id : selected) {
    if (!explored_[id]) {
      explored_[id] = true;
      // Statistical utility proxy: local data size.
      utility_[id] = static_cast<double>(clients[id].shard().total);
    }
  }
  return selected;
}

void OortSelector::OnOutcome(size_t client_id, bool completed, double duration_s,
                             double deadline_s) {
  FLOATFL_CHECK(client_id < utility_.size());
  // Pacer (Oort §: adaptive developer-preferred duration): when completions
  // are scarce, tolerate slower clients; when plentiful, demand speed.
  completion_ewma_ += 0.05 * ((completed ? 1.0 : 0.0) - completion_ewma_);
  if (completion_ewma_ < 0.6) {
    pacer_fraction_ = std::min(0.9, pacer_fraction_ + 0.002);
  } else if (completion_ewma_ > 0.85) {
    pacer_fraction_ = std::max(0.3, pacer_fraction_ - 0.002);
  }
  if (!completed) {
    ++failures_[client_id];
    utility_[client_id] *= 0.5;  // failed rounds sharply reduce utility
    return;
  }
  failures_[client_id] = 0;
  // System-speed penalty: clients slower than the developer-preferred round
  // duration lose utility by (T/t)^alpha.
  const double preferred = pacer_fraction_ * deadline_s;
  if (duration_s > preferred && duration_s > 0.0) {
    const double penalty = std::pow(preferred / duration_s, params_.speed_penalty_alpha);
    utility_[client_id] *= std::max(0.05, penalty);
  } else {
    // Fast completions slowly restore utility toward the data-size level.
    utility_[client_id] *= 1.05;
  }
}

void OortSelector::OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) {
  FLOATFL_CHECK(client_id < net_factor_.size());
  if (effective_mbps <= 0.0 || nominal_mbps <= 0.0) {
    return;
  }
  const double ratio = effective_mbps / nominal_mbps;
  net_factor_[client_id] = Client::kProfileEwmaRetain * net_factor_[client_id] +
                           Client::kProfileEwmaObserve * ratio;
}

}  // namespace floatfl
