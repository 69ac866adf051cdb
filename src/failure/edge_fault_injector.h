// Deterministic fault injection for the edge-aggregator tier (DESIGN.md
// §13), mirroring the client-tier FaultInjector contract.
//
// Every draw comes from a stream keyed by (seed, round, edge) via
// Rng::ForkKeyed — never from an advancing shared stream — so an edge fault
// decision depends only on the experiment seed and the (round, edge)
// coordinate: not on thread count, not on how many client faults fired, and
// not on where a checkpoint boundary fell. Decide() is const; the only
// mutable state is the per-edge Markov flaky vector, advanced once per round
// from sequential code and serialized into checkpoints.
#ifndef SRC_FAILURE_EDGE_FAULT_INJECTOR_H_
#define SRC_FAILURE_EDGE_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/flaky_chains.h"
#include "src/topology/topology_config.h"

namespace floatfl {

// Outcome of the fault draws for one (round, edge) coordinate.
struct EdgeFaultDecision {
  // The edge process dies: its cohort fails over (or orphans) and the edge
  // cools down before rejoining.
  bool crash = false;
  // Transient outage: same in-round effect, no cooldown.
  bool blackout = false;
  // The edge tampers with the partial aggregate it forwards this round.
  bool byzantine = false;
};

class EdgeFaultInjector {
 public:
  // Disabled injector: never fires, BeginRound is a no-op.
  EdgeFaultInjector() = default;
  EdgeFaultInjector(const TopologyConfig& config, uint64_t seed, size_t num_edges);

  bool enabled() const { return enabled_; }

  // Advances the per-edge flaky Markov chains to `round`. Call once at the
  // start of each round, from sequential code. Safe with non-consecutive
  // rounds after a resume (one (round, edge)-keyed draw per missing round).
  void BeginRound(size_t round) { chains_.BeginRound(round); }

  // Pure draw for one (round, edge): thread-safe, order-independent.
  EdgeFaultDecision Decide(size_t round, size_t edge) const;

  bool IsFlakyEligible(size_t edge) const { return chains_.IsFlakyEligible(edge); }
  bool IsFlaky(size_t edge) const { return chains_.IsFlaky(edge); }

  // True when edge attacks are configured and `edge` belongs to the seeded
  // tampering fraction (drawn once at construction). Byzantine edges tamper
  // in every round they are up.
  bool IsByzantineEdge(size_t edge) const { return chains_.IsByzantine(edge); }

  // Independent per-(round, edge) stream for tampering randomness.
  Rng AttackRng(size_t round, size_t edge) const;

  // Quality-space tampering for the surrogate engines, applied to each
  // forwarded contribution quality of a Byzantine edge's partial: sign-flip
  // zeroes the quality (worthless but in-band — only a robust root rule
  // limits it), scaled replacement forwards a negative quality of magnitude
  // edge_byzantine_scale * q (out of band — the root's range validation
  // rejects it), Gaussian noise perturbs without re-clamping (sometimes out
  // of band, sometimes slipping through).
  double TamperedQuality(double quality, size_t round, size_t edge) const;

  void SaveState(CheckpointWriter& w) const { chains_.SaveState(w); }
  bool LoadState(CheckpointReader& r) { return chains_.LoadState(r); }

 private:
  TopologyConfig config_;
  uint64_t seed_ = 0;
  bool enabled_ = false;
  // Flaky episodes and tampering membership per edge.
  FlakyChains chains_;
};

}  // namespace floatfl

#endif  // SRC_FAILURE_EDGE_FAULT_INJECTOR_H_
