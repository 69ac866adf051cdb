// Shared fixtures for the recovery test suite: one small, fault-seasoned
// configuration per engine, a Fresh() factory that rebuilds the engine (and
// its selector, for the sync engine) from scratch the way a relaunched
// process would, and TrainingState() — the engine's serialized state minus
// the trailing RecoveryTracker section, i.e. everything that must be
// bit-identical between an interrupted-and-recovered run and an
// uninterrupted golden (the tracker itself is *supposed* to differ: it
// counts the restarts).
#ifndef TESTS_RECOVERY_ENGINE_HARNESS_H_
#define TESTS_RECOVERY_ENGINE_HARNESS_H_

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/recovery/checkpoint_ring.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace testutil {

inline ExperimentConfig RecoverySyncConfig() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 10;
  config.seed = 11;
  config.num_threads = 1;
  config.faults.crash_prob = 0.1;
  config.faults.corrupt_prob = 0.05;
  return config;
}

inline RealFlConfig RecoveryRealConfig() {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 7;
  config.num_threads = 1;
  config.faults.crash_prob = 0.15;
  return config;
}

inline VflConfig RecoveryVflConfig() {
  VflConfig config;
  config.num_parties = 3;
  config.features_per_party = 5;
  config.embedding_dim = 6;
  config.num_classes = 4;
  config.train_samples = 120;
  config.test_samples = 80;
  config.seed = 31;
  config.faults.crash_prob = 0.15;
  return config;
}

// Serialized engine state with the trailing RecoveryTracker section removed
// (it is always the final section of every engine's payload, fixed-width).
template <typename Engine>
std::string TrainingState(const Engine& engine) {
  CheckpointWriter full;
  engine.SaveState(full);
  CheckpointWriter tail;
  Io(tail, engine.recovery_tracker());
  return full.buffer().substr(0, full.buffer().size() - tail.buffer().size());
}

inline void WipeRingDir(const std::string& dir) {
  CheckpointRing ring(dir, 0);
  ring.SweepTemps();
  for (size_t round : ring.Rounds()) {
    std::remove(ring.PathFor(round).c_str());
  }
  ::rmdir(dir.c_str());
}

struct SyncHarness {
  using Engine = SyncEngine;
  static constexpr const char* kName = "sync";
  static constexpr size_t kTotalRounds = 10;
  ExperimentConfig config = RecoverySyncConfig();
  std::unique_ptr<RandomSelector> selector;
  std::unique_ptr<SyncEngine> engine;
  void Fresh() {
    selector = std::make_unique<RandomSelector>(config.seed);
    engine = std::make_unique<SyncEngine>(config, selector.get(), nullptr);
  }
  SyncEngine& get() { return *engine; }
};

struct AsyncHarness {
  using Engine = AsyncEngine;
  static constexpr const char* kName = "async";
  static constexpr size_t kTotalRounds = 10;
  ExperimentConfig config;
  std::unique_ptr<AsyncEngine> engine;
  AsyncHarness() {
    config = RecoverySyncConfig();
    config.async_concurrency = 12;
    config.async_buffer = 4;
  }
  void Fresh() { engine = std::make_unique<AsyncEngine>(config, nullptr); }
  AsyncEngine& get() { return *engine; }
};

struct RealHarness {
  using Engine = RealFlEngine;
  static constexpr const char* kName = "real";
  static constexpr size_t kTotalRounds = 6;
  RealFlConfig config = RecoveryRealConfig();
  std::unique_ptr<RealFlEngine> engine;
  void Fresh() { engine = std::make_unique<RealFlEngine>(config); }
  RealFlEngine& get() { return *engine; }
};

struct VflHarness {
  using Engine = VflEngine;
  static constexpr const char* kName = "vfl";
  static constexpr size_t kTotalRounds = 6;
  VflConfig config = RecoveryVflConfig();
  std::unique_ptr<VflEngine> engine;
  void Fresh() { engine = std::make_unique<VflEngine>(config); }
  VflEngine& get() { return *engine; }
};

}  // namespace testutil
}  // namespace floatfl

#endif  // TESTS_RECOVERY_ENGINE_HARNESS_H_
