// Real-training federated learning engine.
//
// The trace-driven engines replace DNN training with an analytic convergence
// model for paper-scale runs; this engine is the complementary ground-truth
// path: clients hold materialized synthetic shards, train real MLPs with
// SGD, apply the *actual* tensor-level optimizations (uniform affine
// quantization, magnitude pruning with sparse encoding, partial training via
// frozen layers, lossless RLE compression) to their uploads, and the server
// aggregates real weights with FedAvg. It demonstrates end to end that
// FLOAT's accelerations are real code with measurable accuracy/byte
// trade-offs, not just cost multipliers.
#ifndef SRC_FL_REAL_ENGINE_H_
#define SRC_FL_REAL_ENGINE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/admission/admission_config.h"
#include "src/agg/aggregator.h"
#include "src/agg/aggregator_config.h"
#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/fault_config.h"
#include "src/fl/server_core.h"
#include "src/fl/tuning_policy.h"
#include "src/guard/guard_config.h"
#include "src/nn/mlp.h"
#include "src/nn/optimizer.h"
#include "src/opt/technique.h"
#include "src/salvage/salvage_config.h"
#include "src/topology/topology_config.h"

namespace floatfl {

struct RealFlConfig {
  size_t num_clients = 20;
  size_t clients_per_round = 5;
  size_t num_classes = 5;
  size_t input_dim = 16;
  double class_separation = 2.5;
  double alpha = 0.3;              // Dirichlet non-IID-ness of the shards
  std::vector<size_t> hidden_dims = {32};
  SgdConfig sgd;
  size_t test_samples_per_class = 40;
  uint64_t seed = 1;
  // Worker threads for per-client local training. 0 = hardware_concurrency();
  // 1 = fully sequential. Results are bit-for-bit identical for every value:
  // each client trains on its own (round, client_id)-keyed RNG stream and
  // updates aggregate in selection order.
  size_t num_threads = 0;
  // Fault injection (DESIGN.md §8). Crashes drop the client's update on the
  // floor; corruption poisons the uploaded tensor (NaN / Inf / exploding
  // norm), which the server-side validation quarantines. The real engine has
  // no wall clock, so blackout windows are interpreted in round units.
  FaultConfig faults;
  // Server-side aggregation rule (DESIGN.md §9). Default = plain weighted
  // FedAvg, bit-identical to the historical behavior.
  AggregatorConfig aggregator;
  // Self-healing guard (DESIGN.md §11). Default disabled = strict no-op.
  GuardConfig guard;
  // Hierarchical aggregation tree (DESIGN.md §13). Default (num_edges == 0)
  // keeps the flat star pipeline bit-for-bit. The engine has no wall clock,
  // so the sync-only knobs (edge_overcommit, edge_adaptive_deadline) are
  // ignored here; everything else — edge faults, failover, Byzantine edges,
  // the lossy inter-tier link, the per-edge aggregation rule — applies to
  // real parameter-space partials.
  TopologyConfig topology;
  // Server-ingestion admission layer (DESIGN.md §15). Default off: strict
  // byte-for-byte no-op. The async-only bounded-staleness knob is ignored
  // here (the real engine is synchronous).
  AdmissionConfig admission;
  // Graceful degradation (DESIGN.md §16). Default off: strict byte-for-byte
  // no-op. With salvage on, a crash-faulted client trains up to its drawn
  // interruption point (real SGD steps, capped via SgdConfig::max_steps) and
  // the server aggregates the partial at step-fraction weight; a timed-out
  // upload is salvaged as a prefix patch over the acked byte fraction.
  // Speculative re-execution is refused: the engine has no wall clock, so
  // there is no deadline race for a backup to win.
  SalvageConfig salvage;

  // The fingerprinted fields (DESIGN.md §8). num_threads is left out:
  // results do not depend on it, so an archive resumes at any thread count.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.num_clients, self.clients_per_round, self.num_classes, self.input_dim,
       self.class_separation, self.alpha, self.hidden_dims, self.sgd, self.test_samples_per_class,
       self.seed, self.faults, self.aggregator, self.guard, self.topology, self.admission,
       self.salvage);
  }
};

// Per-round measurements of the real pipeline.
struct RealRoundStats {
  double test_accuracy = 0.0;
  double test_loss = 0.0;
  // Fresh uploads the server accepted, with or without an ingestion gate;
  // salvaged partials count in partials_salvaged.
  size_t participants = 0;
  // Mean serialized upload size per participant, bytes (after the applied
  // optimization: quantized codes, sparse encoding, or compressed blob).
  double mean_upload_bytes = 0.0;
  // Mean max-abs reconstruction error the optimization injected into the
  // aggregated updates (0 for exact techniques).
  double mean_update_error = 0.0;
  // Injected-failure accounting: clients that crashed mid-round and updates
  // quarantined by the server's finite/norm validation.
  size_t crashed = 0;
  size_t rejected_updates = 0;
  // Attack-vs-defense accounting: selected clients that submitted a crafted
  // Byzantine update, and what the configured aggregator excluded/limited.
  size_t byzantine_selected = 0;
  size_t updates_clipped = 0;
  size_t krum_rejections = 0;
  size_t updates_trimmed = 0;
  // Lossy-transport accounting (DESIGN.md §10): uploads whose retries were
  // exhausted (the trained update never reached the server) and the wasted /
  // salvaged wire bytes behind the ones that did. All zero when the
  // transport is disabled.
  size_t transfer_timeouts = 0;
  double retransmitted_mb = 0.0;
  double salvaged_mb = 0.0;
  // True when the guard's watchdog fired and the round ended by restoring
  // the last known good model (test metrics reflect the restored state).
  bool rolled_back = false;
  // Hierarchical-topology accounting (DESIGN.md §13); all zero on the flat
  // star topology.
  size_t orphaned = 0;            // selected clients with no live edge
  size_t reparented = 0;          // selected clients served by a foster edge
  size_t partials_lost = 0;       // edge partials lost on the inter-tier link
  size_t tampered_partials = 0;   // partials a Byzantine edge tampered with
  size_t tampered_rejections = 0;  // partials the root's validation rejected
  // Server-ingestion accounting (DESIGN.md §15); all zero with the admission
  // layer off and no overload faults. redundant_upload_mb is the wire volume
  // of duplicate/replay deliveries the server fully re-processed this round
  // (zero when the admission gate turned them away at the doorstep).
  size_t admitted = 0;
  size_t deduplicated = 0;
  size_t shed = 0;
  size_t rate_limited = 0;
  size_t replay_rejected = 0;
  size_t peak_queue_depth = 0;
  double redundant_upload_mb = 0.0;
  // Graceful-degradation accounting (DESIGN.md §16); all zero with salvage
  // off. A salvaged client still counts in crashed / transfer_timeouts (it
  // is a dropout for the guard and the policy), but its partial update
  // re-entered aggregation at reduced weight.
  size_t partials_salvaged = 0;
  size_t partials_below_min = 0;
  size_t partials_rejected = 0;
  uint64_t salvaged_steps = 0;
};

class RealFlEngine : public ServerCore {
 public:
  explicit RealFlEngine(const RealFlConfig& config);

  // Runs one round; `choose_technique(client_id)` picks the upload
  // optimization per client (use a lambda returning a constant for static
  // baselines). Returns post-aggregation test metrics.
  RealRoundStats RunRound(const std::function<TechniqueKind(size_t)>& choose_technique);

  // Convenience: same technique for every client.
  RealRoundStats RunRound(TechniqueKind technique);

  // Attaches a tuning policy (not owned; may be null to detach). The policy
  // decides each selected client's technique in RunRoundWithPolicy and
  // receives per-client Report feedback — participated=false with the real
  // dropout reason semantics (crash, blackout, lost transfer, quarantined
  // update) and an accuracy credit derived from the round's test-accuracy
  // delta. The real engine has no trace-driven observations, so clients are
  // presented to the policy with a neutral ClientObservation.
  void AttachPolicy(TuningPolicy* policy) { policy_ = policy; }
  RealRoundStats RunRoundWithPolicy();

  // Test accuracy of the global model.
  double EvaluateAccuracy() const;

  size_t NumClients() const { return shards_.size(); }
  const Mlp& global_model() const { return *global_; }
  const RealFlConfig& config() const { return config_; }
  // Serialized fp32 upload size, for compression-ratio comparisons.
  size_t DenseUpdateBytes() const;
  size_t RoundsRun() const { return rounds_run_; }

  // Checkpoint/resume: the datasets and model topology are rebuilt
  // deterministically from config; only the mutable training state (RNGs,
  // round counter, global weights, flaky chains) is serialized.
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  // The payload's fields in archive order.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a);

  // A trained parameter vector after its upload optimization, with the
  // bytes a real upload would ship and the max-abs error injected.
  struct ProcessedUpdate {
    std::vector<float> params;
    size_t upload_bytes = 0;
    double max_error = 0.0;
    double UploadMb() const { return static_cast<double>(upload_bytes) / (1024.0 * 1024.0); }
  };
  // Applies the technique to `upload.params` in place and records the bytes
  // and the error.
  static void ProcessUpload(TechniqueKind technique, ProcessedUpdate& upload);

  size_t FrozenLayersFor(TechniqueKind technique) const;

  // A client's FedAvg weight: its shard's sample count.
  double SampleWeight(size_t client_id) const;

  // One selected client's round, defined in real_engine.cc.
  struct Slot;
  // A parameter vector on its way to the root, with its FedAvg weight.
  struct WeightedUpdate;
  // Phase 2 of a round for one slot, safe to run in parallel: local
  // training, upload processing, poisoning or Byzantine rewrite, the salvage
  // partial of an interrupted run or a timed-out upload, the server's
  // validation and the lossy delivery.
  void RunSlot(size_t round, const std::vector<float>& global_params, Slot& slot) const;

  // Slot indices in decreasing order of estimated SGD work (ties in slot
  // order): the shard's sample count times (layers + 2 x trained layers).
  std::vector<size_t> SlotsByWork(const std::vector<Slot>& slots) const;

  // Reduces `updates` with `aggregator` against the round's starting
  // `global` parameters on the engine's pool, moving their vectors into the
  // spare buffers (up to clients_per_round). `total_weight`, when non-null,
  // gets the updates' weights added in order.
  std::vector<float> Reduce(Aggregator& aggregator, std::vector<WeightedUpdate>& updates,
                            const std::vector<float>& global, AggregatorStats* stats,
                            double* total_weight);

  // Test accuracy and loss of the global model, from one pass over the test
  // set on the engine's pool.
  Mlp::Evaluation EvaluateTestSet() const;

  // Shared round body. `report` (may be empty) receives per-client feedback
  // after aggregation: (client_id, technique, participated, accuracy_credit).
  RealRoundStats RunRoundImpl(
      const std::function<TechniqueKind(size_t)>& choose_technique,
      const std::function<void(size_t, TechniqueKind, bool, double)>& report);

  RealFlConfig config_;
  std::unique_ptr<Aggregator> aggregator_;
  // One edge aggregator instance folds every edge's cohort in edge order
  // (DESIGN.md §13), so its internal totals accumulate deterministically
  // across edges and rounds.
  std::unique_ptr<Aggregator> edge_aggregator_;
  Rng rng_;
  // Root of the per-(round, client) training streams; never advanced, only
  // ForkKeyed — so the streams are independent of simulation order.
  Rng client_stream_root_;
  size_t rounds_run_ = 0;
  std::unique_ptr<SyntheticTaskData> task_;
  std::vector<ClientShard> shards_;
  std::vector<Tensor> client_inputs_;
  std::vector<std::vector<int>> client_labels_;
  std::unique_ptr<Mlp> global_;
  Tensor test_inputs_;
  std::vector<int> test_labels_;
  std::vector<size_t> model_dims_;
  // Skips a client stream past a fresh model's init draws, where the
  // recorded SGD draws start.
  Rng::Skip init_skip_;
  // Parameter buffers earlier reductions consumed, handed to the next
  // round's slots before its parallel phase so that no round re-faults
  // fresh pages for them; at most clients_per_round. Every element is
  // overwritten before it is read, so they are not checkpointed.
  std::vector<std::vector<float>> spare_params_;
  // Test accuracy the last round ended with, after any rollback: the next
  // policy round's round-start accuracy. Derived from the global model, so
  // it is not checkpointed; LoadState clears it and the next round
  // recomputes it.
  std::optional<double> round_end_accuracy_;
};

}  // namespace floatfl

#endif  // SRC_FL_REAL_ENGINE_H_
