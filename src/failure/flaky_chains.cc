#include "src/failure/flaky_chains.h"

#include "src/common/rng.h"

namespace floatfl {
namespace {

// One draw per member from the stream keyed by its index.
std::vector<uint8_t> DrawMembership(uint64_t seed, size_t members, double fraction) {
  std::vector<uint8_t> drawn(members, 0);
  const Rng root(seed);
  for (size_t i = 0; i < members; ++i) {
    Rng stream = root.ForkKeyed(i);
    drawn[i] = stream.NextDouble() < fraction ? 1 : 0;
  }
  return drawn;
}

}  // namespace

FlakyChains::FlakyChains(uint64_t seed, size_t members, const Params& params)
    : params_(params),
      seed_(seed),
      flaky_eligible_(members, 0),
      flaky_(members, 0) {
  if (params_.flaky_fraction > 0.0) {
    flaky_eligible_ =
        DrawMembership(seed_ ^ params_.eligibility_salt, members, params_.flaky_fraction);
  }
  if (params_.byzantine_fraction > 0.0) {
    byzantine_ = DrawMembership(seed_ ^ params_.byzantine_salt, members, params_.byzantine_fraction);
  }
}

void FlakyChains::BeginRound(size_t round) {
  if (params_.flaky_fraction <= 0.0) {
    return;
  }
  const Rng root(seed_ ^ params_.flaky_salt);
  for (size_t r = rounds_advanced_; r <= round; ++r) {
    for (size_t i = 0; i < flaky_.size(); ++i) {
      if (!flaky_eligible_[i]) {
        continue;
      }
      Rng stream = root.ForkKeyed(Rng::StreamKey(r, i));
      const double u = stream.NextDouble();
      if (flaky_[i]) {
        if (u < params_.exit_prob) {
          flaky_[i] = 0;
        }
      } else if (u < params_.enter_prob) {
        flaky_[i] = 1;
      }
    }
  }
  rounds_advanced_ = round + 1;
}

}  // namespace floatfl
