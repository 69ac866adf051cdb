#include "src/recovery/run_supervisor.h"

#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"

namespace floatfl {
namespace {

// Round-counter and default-step traits mapping the four engines' stepping
// APIs onto the supervisor's uniform "rounds done" clock (async versions and
// VFL epochs are those engines' round analogues, the same convention the
// fault injector and guard use).
size_t RoundsDone(const SyncEngine& engine) { return engine.RoundsRun(); }
size_t RoundsDone(const AsyncEngine& engine) { return engine.Version(); }
size_t RoundsDone(const RealFlEngine& engine) { return engine.RoundsRun(); }
size_t RoundsDone(const VflEngine& engine) { return engine.EpochsRun(); }

void DefaultStep(SyncEngine& engine, size_t round) { engine.RunRound(round); }
void DefaultStep(AsyncEngine& engine, size_t round) { engine.RunUntil(round + 1); }
void DefaultStep(RealFlEngine& engine, size_t) { engine.RunRound(TechniqueKind::kNone); }
void DefaultStep(VflEngine& engine, size_t) { engine.TrainEpoch(TechniqueKind::kNone); }

}  // namespace

template <typename Engine>
RunSupervisor<Engine>::RunSupervisor(const RecoveryConfig& config, Engine& engine)
    : config_(config),
      engine_(engine),
      step_([](Engine& e, size_t round) { DefaultStep(e, round); }),
      ring_(config.dir, config.ring_depth) {
  ValidateRecoveryConfig(config_);
}

template <typename Engine>
void RunSupervisor<Engine>::SetCrashPlan(CrashPlan* plan) {
  plan_ = plan;
  faulty_io_ = FaultyDurableFile(plan);
}

template <typename Engine>
DurableFile& RunSupervisor<Engine>::ActiveIo() {
  if (plan_ != nullptr) {
    return faulty_io_;
  }
  return io_ != nullptr ? *io_ : DefaultDurableFile();
}

template <typename Engine>
size_t RunSupervisor<Engine>::Recover() {
  if (!config_.enabled) {
    return RoundsDone(engine_);
  }
  ring_.EnsureDir();
  // Evidence first, cleanup second: the furthest round stamped anywhere in
  // the directory — torn temps included — proves how far a previous life
  // got, and is the basis of the rounds-replayed accounting.
  const size_t furthest = ring_.FurthestNamedRound();
  const size_t temps = ring_.SweepTemps();
  const std::vector<size_t> rounds = ring_.Rounds();

  size_t skipped = 0;
  bool restored = false;
  size_t restored_round = 0;
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
    // Restore hash-verifies the payload in full before touching the engine,
    // so a refused candidate leaves it pristine for the next-older one.
    if (Checkpointer::Restore(ring_.PathFor(*it), engine_)) {
      restored = true;
      restored_round = *it;
      break;
    }
    ++skipped;
  }

  report_.recovered = restored;
  report_.archives_scanned = skipped + (restored ? 1 : 0);
  report_.archives_skipped = skipped;
  report_.temps_swept = temps;
  report_.rounds_restored = RoundsDone(engine_);
  report_.rounds_replayed = furthest > restored_round ? furthest - restored_round : 0;

  // The cumulative tracker rides inside the engine state, so everything
  // recorded now is itself durable from the next checkpoint on.
  RecoveryTracker& tracker = engine_.recovery_tracker();
  if (restored) {
    ++tracker.restarts;
  }
  tracker.archives_skipped += skipped;
  tracker.rounds_replayed += report_.rounds_replayed;
  tracker.temps_swept += temps;
  return RoundsDone(engine_);
}

template <typename Engine>
bool RunSupervisor<Engine>::SaveRingCheckpoint(size_t rounds_done) {
  if (plan_ != nullptr && plan_->FiresAt(rounds_done, CrashSite::kBeforeSave)) {
    // Nothing written yet: the kill loses everything since the last archive.
    plan_->Kill();
    return false;
  }
  ring_.EnsureDir();
  DurableFile& io = ActiveIo();
  if (plan_ != nullptr) {
    faulty_io_.Arm(rounds_done);
  }
  const bool saved = Checkpointer::Save(ring_.PathFor(rounds_done), engine_, io);
  if (plan_ != nullptr && faulty_io_.crashed()) {
    return false;
  }
  RecoveryTracker& tracker = engine_.recovery_tracker();
  if (saved) {
    ++tracker.checkpoints_written;
    ++report_.checkpoints_written;
    const size_t collected = ring_.Collect();
    tracker.checkpoints_collected += collected;
    report_.checkpoints_collected += collected;
  } else {
    // Disk fault (unwritable dir, ENOSPC, short write): the run limps on
    // with the previous archive one cadence staler — never crashes.
    ++tracker.checkpoints_failed;
    ++report_.checkpoints_failed;
  }
  return true;
}

template <typename Engine>
SupervisedOutcome RunSupervisor<Engine>::Run(size_t total_rounds) {
  while (RoundsDone(engine_) < total_rounds) {
    const size_t round = RoundsDone(engine_);
    step_(engine_, round);
    if (plan_ != nullptr && plan_->FiresAt(round, CrashSite::kMidRound)) {
      // The round's work exists only in memory and dies with the process.
      plan_->Kill();
      return SupervisedOutcome::kKilled;
    }
    const size_t done = RoundsDone(engine_);
    if (config_.enabled && (done % config_.checkpoint_every == 0 || done >= total_rounds)) {
      // Cadence on the absolute round stamp, not a per-life counter: a
      // relaunched life re-saves at the same boundaries it would have hit
      // uninterrupted, so the ring's layout is independent of kill history.
      if (!SaveRingCheckpoint(done)) {
        return SupervisedOutcome::kKilled;
      }
    }
  }
  return SupervisedOutcome::kCompleted;
}

template class RunSupervisor<SyncEngine>;
template class RunSupervisor<AsyncEngine>;
template class RunSupervisor<RealFlEngine>;
template class RunSupervisor<VflEngine>;

}  // namespace floatfl
