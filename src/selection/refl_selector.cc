#include "src/selection/refl_selector.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/fl/client.h"

namespace floatfl {
namespace {

// Optimistic priors so every client gets at least one chance; clients whose
// observed rounds run past the deadline drift to high duration estimates and
// are excluded — REFL's observed bias.
constexpr double kDefaultWindowS = 1800.0;
constexpr double kDefaultDurationS = 0.0;
constexpr double kEwma = 0.7;

}  // namespace

ReflSelector::ReflSelector(uint64_t seed, size_t num_clients)
    : rng_(seed),
      predicted_window_s_(num_clients, kDefaultWindowS),
      estimated_duration_s_(num_clients, kDefaultDurationS),
      last_participated_(num_clients, 0),
      seen_(num_clients, false),
      net_factor_(num_clients, 1.0) {}

std::vector<size_t> ReflSelector::Select(size_t round, double now_s, size_t k,
                                         std::vector<Client>& clients) {
  FLOATFL_CHECK(clients.size() == predicted_window_s_.size());
  // Refresh window predictions from what the server can observe: the
  // client's current remaining availability (only for available clients).
  std::vector<size_t> eligible;
  for (auto& client : clients) {
    const size_t id = client.id();
    if (!client.availability().IsAvailableAt(now_s)) {
      continue;
    }
    const double observed = client.availability().PeriodEndAfter(now_s) - now_s;
    // REFL treats availability as a fixed linear window learned from history
    // — the *smoothed* past, not the live value.
    predicted_window_s_[id] =
        seen_[id] ? kEwma * predicted_window_s_[id] + (1.0 - kEwma) * observed : observed;
    seen_[id] = true;
    // Eligible only if REFL predicts the client both completes within the
    // round deadline and stays available that long. Clients whose past
    // rounds were slow are excluded — the bias the paper demonstrates.
    // Under lossy transport the duration estimate is deflated by the
    // effective/nominal bandwidth ratio: a client whose link delivers half
    // its provisioned speed is judged as if twice as slow. net_factor_ is
    // exactly 1.0 without transfer feedback, so x / 1.0 == x bit-for-bit.
    const double effective_duration =
        estimated_duration_s_[id] / std::max(0.05, net_factor_[id]);
    const bool fits_deadline =
        last_deadline_s_ <= 0.0 || effective_duration <= 0.9 * last_deadline_s_;
    if (fits_deadline && predicted_window_s_[id] >= effective_duration &&
        client.cooldown_until_round <= round) {
      eligible.push_back(id);
    }
  }
  // Staleness priority: least-recently-participated first; random
  // tie-breaking so equal-staleness clients rotate.
  std::vector<double> staleness(eligible.size());
  for (size_t i = 0; i < eligible.size(); ++i) {
    staleness[i] = static_cast<double>(round - last_participated_[eligible[i]]) +
                   0.01 * rng_.NextDouble();
  }
  std::vector<size_t> order(eligible.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&staleness](size_t a, size_t b) { return staleness[a] > staleness[b]; });
  std::vector<size_t> selected;
  selected.reserve(std::min(k, eligible.size()));
  for (size_t i = 0; i < order.size() && selected.size() < k; ++i) {
    const size_t id = eligible[order[i]];
    selected.push_back(id);
    last_participated_[id] = round;
  }
  return selected;
}

void ReflSelector::OnOutcome(size_t client_id, bool completed, double duration_s,
                             double deadline_s) {
  FLOATFL_CHECK(client_id < estimated_duration_s_.size());
  double observed = duration_s;
  if (!completed) {
    // A failed round means the true duration exceeded what the client could
    // deliver; REFL inflates its estimate past the deadline.
    observed = std::max(duration_s, deadline_s) * 1.1;
  }
  estimated_duration_s_[client_id] =
      kEwma * estimated_duration_s_[client_id] + (1.0 - kEwma) * observed;
  last_deadline_s_ = deadline_s;
}

void ReflSelector::OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) {
  FLOATFL_CHECK(client_id < net_factor_.size());
  if (effective_mbps <= 0.0 || nominal_mbps <= 0.0) {
    return;
  }
  const double ratio = effective_mbps / nominal_mbps;
  net_factor_[client_id] = Client::kProfileEwmaRetain * net_factor_[client_id] +
                           Client::kProfileEwmaObserve * ratio;
}

}  // namespace floatfl
