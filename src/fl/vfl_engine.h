// Vertical Federated Learning engine (Section 7, "FLOAT for non-horizontal
// FL").
//
// K parties hold disjoint feature slices of the same samples; each party
// owns a bottom encoder (its features -> embedding) and the server owns the
// top classifier over the concatenated embeddings (the split / top-bottom
// model formulation the paper cites). Per step, parties send embeddings up
// and receive embedding gradients back — both legs can be quantized, which
// is where FLOAT's communication accelerations plug into VFL without any
// structural change, exactly the claim of Section 7.
#ifndef SRC_FL_VFL_ENGINE_H_
#define SRC_FL_VFL_ENGINE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/fault_injector.h"
#include "src/guard/guard_config.h"
#include "src/guard/training_guard.h"
#include "src/metrics/recovery_tracker.h"
#include "src/metrics/transport_tracker.h"
#include "src/net/transport.h"
#include "src/fl/experiment.h"
#include "src/nn/layers.h"
#include "src/opt/technique.h"

namespace floatfl {

struct VflConfig {
  size_t num_parties = 3;
  size_t features_per_party = 6;
  size_t embedding_dim = 8;
  size_t num_classes = 4;
  size_t train_samples = 300;
  size_t test_samples = 200;
  double class_separation = 2.0;
  float learning_rate = 0.05f;
  size_t batch_size = 32;
  uint64_t seed = 1;
  // Fault injection (DESIGN.md §8), interpreted per (epoch, party): a
  // crashed or blacked-out party is silent for the epoch (its embedding
  // slice is zero-filled and its encoder does not train); a corrupting party
  // sends non-finite embeddings, which the server's validation quarantines
  // for the epoch. The default config is a strict no-op.
  FaultConfig faults;
  // Self-healing guard (DESIGN.md §11). Default disabled = strict no-op.
  GuardConfig guard;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.num_parties, self.features_per_party, self.embedding_dim, self.num_classes,
       self.train_samples, self.test_samples, self.class_separation, self.learning_rate,
       self.batch_size, self.seed, self.faults, self.guard);
  }
};

struct VflRoundStats {
  double train_loss = 0.0;
  double test_accuracy = 0.0;
  // Total embedding + gradient traffic this round, bytes (after the applied
  // communication optimization).
  double traffic_bytes = 0.0;
  // Injected-failure accounting: parties silent this epoch (crash/blackout)
  // and parties whose embeddings the server quarantined (corruption).
  size_t parties_crashed = 0;
  size_t parties_quarantined = 0;
  // Lossy-transport accounting (DESIGN.md §10): parties whose embedding
  // uplink exhausted its retries this epoch (silent, like a crash), plus the
  // wasted / salvaged wire bytes of the uplinks that went through. All zero
  // when the transport is disabled.
  size_t parties_timed_out = 0;
  double retransmitted_mb = 0.0;
  double salvaged_mb = 0.0;
  // True when the guard's watchdog fired and the epoch ended by restoring
  // the last known good split model (test_accuracy reflects the restore).
  bool rolled_back = false;
};

class VflEngine {
 public:
  explicit VflEngine(const VflConfig& config);

  // One pass over the training data. `comm_technique` optionally quantizes
  // the embedding/gradient exchange (kNone, kQuant16 or kQuant8; other
  // techniques are treated as kNone since they target horizontal updates).
  VflRoundStats TrainEpoch(TechniqueKind comm_technique);

  double EvaluateAccuracy();
  const VflConfig& config() const { return config_; }
  size_t EpochsRun() const { return epochs_run_; }
  const TransportTracker& transport_tracker() const { return transport_tracker_; }
  const TrainingGuard& guard() const { return guard_; }
  // Crash-recovery accounting (DESIGN.md §14); recorded by the RunSupervisor
  // and serialized with the engine so totals survive process kills.
  RecoveryTracker& recovery_tracker() { return recovery_tracker_; }
  const RecoveryTracker& recovery_tracker() const { return recovery_tracker_; }

  // Checkpoint/resume: datasets and model topology rebuild from config; the
  // mutable training state (epoch counter, RNG, every party encoder, the top
  // classifier, the injector's chains) is serialized. The resume contract is
  // the same bit-for-bit one the horizontal engines obey.
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  // The payload's fields in archive order.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a);

  // Forward all parties for rows [start, start+count) of `inputs`; returns
  // the concatenated (possibly quantize-dequantized) embedding batch and
  // accumulates traffic. `faults`, when non-null, holds this epoch's
  // per-party decisions: silent parties leave their slice zeroed, corrupting
  // parties send poisoned embeddings the server zeroes after its finite
  // check.
  Tensor ForwardParties(const std::vector<Tensor>& inputs, size_t start, size_t count,
                        TechniqueKind technique, double* traffic_bytes,
                        const std::vector<FaultDecision>* faults = nullptr);

  VflConfig config_;
  FaultInjector injector_;
  // Bandwidth-free lossy delivery for the per-epoch embedding uplink
  // (Transport::TryDeliver); disabled by default.
  Transport transport_;
  TransportTracker transport_tracker_;
  // Self-healing guard (DESIGN.md §11); disabled by default.
  TrainingGuard guard_;
  RecoveryTracker recovery_tracker_;
  Rng rng_;
  size_t epochs_run_ = 0;
  std::vector<DenseLayer> bottoms_;       // one encoder per party
  std::unique_ptr<DenseLayer> top_;       // server classifier
  std::vector<Tensor> train_features_;    // per-party feature slices
  std::vector<int> train_labels_;
  std::vector<Tensor> test_features_;
  std::vector<int> test_labels_;
};

}  // namespace floatfl

#endif  // SRC_FL_VFL_ENGINE_H_
