#include "src/salvage/speculative_scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/fl/client.h"

namespace floatfl {

std::vector<BackupPlan> SpeculativeScheduler::Plan(size_t round,
                                                   const std::vector<size_t>& selected,
                                                   const std::vector<Client>& clients) {
  std::vector<BackupPlan> plans;
  if (!config_.speculation || selected.empty() || clients.empty()) {
    return plans;
  }
  const size_t cap = static_cast<size_t>(
      std::ceil(config_.max_backup_fraction * static_cast<double>(selected.size())));
  if (cap == 0) {
    return plans;
  }

  // Predicted stragglers, in slot order: clients whose smoothed deadline
  // overshoot exceeds the margin. A client never observed (times_selected ==
  // 0) has no profile and is never speculated on.
  std::vector<size_t> at_risk;
  for (size_t slot = 0; slot < selected.size(); ++slot) {
    const Client& primary = clients[selected[slot]];
    if (primary.times_selected > 0 && primary.last_deadline_diff > config_.speculation_margin) {
      at_risk.push_back(slot);
      if (at_risk.size() == cap) {
        break;
      }
    }
  }
  if (at_risk.empty()) {
    return plans;
  }

  // Fast membership test for "already busy this round".
  std::vector<uint8_t> busy(clients.size(), 0);
  for (size_t id : selected) {
    if (id < clients.size()) {
      busy[id] = 1;
    }
  }

  // Two-pass ring scan from the cursor: first draft idle clients whose own
  // profile is healthy (no point backing a straggler with a straggler),
  // then fall back to any idle, non-cooled-down client.
  const size_t n = clients.size();
  const size_t start = static_cast<size_t>(cursor_ % n);
  auto draft = [&](bool healthy_only) -> size_t {
    for (size_t step = 0; step < n; ++step) {
      const size_t id = (start + step) % n;
      if (busy[id]) {
        continue;
      }
      const Client& candidate = clients[id];
      if (candidate.cooldown_until_round > round) {
        continue;
      }
      if (healthy_only && candidate.last_deadline_diff > config_.speculation_margin) {
        continue;
      }
      return id;
    }
    return n;  // population exhausted
  };

  for (size_t slot : at_risk) {
    size_t backup = draft(/*healthy_only=*/true);
    if (backup == n) {
      backup = draft(/*healthy_only=*/false);
    }
    if (backup == n) {
      break;  // nobody left to draft
    }
    busy[backup] = 1;
    plans.push_back(BackupPlan{slot, backup});
  }

  cursor_ += plans.size();
  backups_planned_ += plans.size();
  if (!plans.empty()) {
    ++rounds_planned_;
  }
  return plans;
}

}  // namespace floatfl
