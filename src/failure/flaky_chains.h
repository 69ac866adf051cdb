// Per-member fault state of the client and edge fault injectors (DESIGN.md
// §8, §13). Flaky eligibility and Byzantine membership are drawn once per
// member (a client or an edge); an eligible member runs a two-state Markov
// chain advanced by one (round, member)-keyed draw per round, so the
// trajectory depends only on the seed, not on thread count or on where a
// checkpoint boundary fell. Each injector supplies its own salts.
#ifndef SRC_FAILURE_FLAKY_CHAINS_H_
#define SRC_FAILURE_FLAKY_CHAINS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class FlakyChains {
 public:
  struct Params {
    uint64_t eligibility_salt = 0;
    uint64_t flaky_salt = 0;
    uint64_t byzantine_salt = 0;
    // Fraction of members eligible for flaky episodes, and the per-round
    // probabilities of entering and leaving one.
    double flaky_fraction = 0.0;
    double enter_prob = 0.0;
    double exit_prob = 0.0;
    // Fraction of members that collude; 0 draws no membership at all.
    double byzantine_fraction = 0.0;
  };

  // No members: never flaky, never Byzantine, BeginRound is a no-op.
  FlakyChains() = default;
  FlakyChains(uint64_t seed, size_t members, const Params& params);

  // Advances every eligible member's chain through each round up to and
  // including `round`. Call once per round from sequential code; safe with
  // non-consecutive rounds after a resume.
  void BeginRound(size_t round);

  bool IsFlakyEligible(size_t member) const { return Has(flaky_eligible_, member); }
  bool IsFlaky(size_t member) const { return Has(flaky_, member); }
  bool IsByzantine(size_t member) const { return Has(byzantine_, member); }

  // The rounds advanced, then the eligibility, state and Byzantine vectors.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  bool LoadState(CheckpointReader& r) {
    Fields(*this, r);
    return r.ok();
  }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    // byzantine_ is empty when no attack is configured.
    constexpr const char* kMismatch = "checkpoint flaky chain membership mismatch";
    Io(a, self.rounds_advanced_);
    IoFixed(a, self.flaky_eligible_, kMismatch);
    IoFixed(a, self.flaky_, kMismatch);
    IoFixed(a, self.byzantine_, kMismatch);
  }

  static bool Has(const std::vector<uint8_t>& set, size_t member) {
    return member < set.size() && set[member] != 0;
  }

  Params params_;
  uint64_t seed_ = 0;
  // Next round BeginRound expects (chains advanced up to rounds_advanced_).
  size_t rounds_advanced_ = 0;
  std::vector<uint8_t> flaky_eligible_;
  std::vector<uint8_t> flaky_;
  std::vector<uint8_t> byzantine_;
};

}  // namespace floatfl

#endif  // SRC_FAILURE_FLAKY_CHAINS_H_
