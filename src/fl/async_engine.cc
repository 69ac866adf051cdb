#include "src/fl/async_engine.h"

#include <algorithm>
#include <limits>

#include "src/agg/quality_agg.h"
#include "src/common/check.h"
#include "src/fl/cost_model.h"

namespace floatfl {
namespace {

// `config` once the async engine's own rules pass it; the surrogate base
// then validates the rest before it builds anything.
const ExperimentConfig& AsyncValidated(const ExperimentConfig& config) {
  // FedBuff's per-client pacing has no round boundary an edge tier could
  // aggregate at; the async engine keeps star semantics and refuses an
  // enabled topology rather than silently ignoring it.
  FLOATFL_CHECK_MSG(!config.topology.enabled(),
                    "async engine does not support hierarchical topology");
  // Speculation hedges against a round deadline; async FL has none, so a
  // backup could never beat its primary to anything. Refuse rather than
  // silently ignore (partial-work salvage is supported).
  FLOATFL_CHECK_MSG(!config.salvage.speculation,
                    "async engine does not support speculative re-execution");
  return config;
}

}  // namespace

// The surrogate's participation target for async FL is the buffer size:
// each aggregation folds in `async_buffer` updates.
AsyncEngine::AsyncEngine(const ExperimentConfig& config, TuningPolicy* policy)
    : SurrogateEngine(AsyncValidated(config), policy, config.async_buffer),
      rng_(config.seed ^ 0xA5F1C3D2E4B60789ULL),
      busy_(config.num_clients, false) {}

void AsyncEngine::LaunchClients(const GlobalObservation& global) {
  // A network blackout cuts the server off entirely: no launches until the
  // window passes (in-flight clients keep training locally).
  if (injector_.enabled() && injector_.InBlackout(now_s_)) {
    return;
  }

  // Collect idle, currently-available clients (minus failure cooldowns,
  // keyed by the aggregation version — async FL's round analogue).
  std::vector<size_t> candidates;
  candidates.reserve(clients_.size());
  for (const auto& client : clients_) {
    if (!busy_[client.id()] && client.cooldown_until_round <= version_) {
      candidates.push_back(client.id());
    }
  }
  // Uniformly random launch order (FedBuff does not rank clients).
  // Phase 1 (sequential): pick the launch batch and run the policy, keeping
  // the RNG and policy draw order fixed across thread counts. Fault draws
  // are keyed by the client's launch count, async FL's per-client round.
  const std::vector<size_t> order = rng_.Permutation(candidates.size());
  std::vector<InFlight> launches;
  std::vector<FaultDecision> faults;
  // Per-launch transport key: the client's launch count before this launch
  // (same key as the fault decision above).
  std::vector<size_t> transfer_rounds;
  for (size_t idx : order) {
    if (in_flight_.size() + launches.size() >= config_.async_concurrency) {
      break;
    }
    const size_t id = candidates[idx];
    Client& client = clients_[id];
    if (!config_.assume_no_dropouts && !client.availability().IsAvailableAt(now_s_)) {
      continue;
    }
    InFlight flight;
    flight.client_id = id;
    flight.start_version = version_;
    flight.observation = ObserveClient(client, now_s_, reference_);
    // Decide always runs (fixed policy draw order); the guard may then mask
    // the action to kNone under safe mode or quarantine.
    flight.technique = guard_.Filter(
        policy_ != nullptr ? policy_->Decide(id, flight.observation, global) : TechniqueKind::kNone,
        version_);
    faults.push_back(injector_.enabled()
                         ? injector_.Decide(client.times_selected, id, now_s_)
                         : FaultDecision());
    transfer_rounds.push_back(client.times_selected);
    launches.push_back(flight);
    busy_[id] = true;
    ++client.times_selected;
  }

  // Phase 2 (parallel): simulate the batch. Each task touches only its own
  // client's trace state (launch ids are distinct by the busy_ guard).
  // FedBuff has no round deadline: the budget is unbounded, and the
  // configured deadline only normalises deadline_diff.
  ParallelFor(pool_.get(), launches.size(), [&](size_t i) {
    InFlight& flight = launches[i];
    flight.outcome = SimulateClientRound(clients_[flight.client_id], transfer_rounds[i], now_s_,
                                         flight.technique, faults[i],
                                         std::numeric_limits<double>::infinity(),
                                         config_.deadline_s);
    if (flight.outcome.reason == DropoutReason::kOutOfMemory) {
      // Unlike sync, FedBuff books an OOM launch's peak memory as zero.
      flight.outcome.costs.peak_memory_mb = 0.0;
    }
    flight.finish_time_s = now_s_ + std::max(1.0, flight.outcome.time_spent_s);
  });

  // Phase 3 (sequential, launch order): commit to the in-flight set.
  for (auto& flight : launches) {
    in_flight_.push_back(flight);
  }
}

void AsyncEngine::StepOnce() {
  BeginRound(version_);

  GlobalObservation global;
  global.batch_size = config_.batch_size;
  global.epochs = config_.epochs;
  global.participants = config_.async_concurrency;

  LaunchClients(global);
  if (in_flight_.empty()) {
    // Nobody available right now; let time pass.
    now_s_ += 60.0;
    return;
  }
  // Pop the earliest finisher.
  size_t next = 0;
  for (size_t i = 1; i < in_flight_.size(); ++i) {
    if (in_flight_[i].finish_time_s < in_flight_[next].finish_time_s) {
      next = i;
    }
  }
  InFlight flight = in_flight_[next];
  in_flight_[next] = in_flight_.back();
  in_flight_.pop_back();
  busy_[flight.client_id] = false;
  now_s_ = std::max(now_s_, flight.finish_time_s);

  Client& client = clients_[flight.client_id];
  ClientRoundOutcome& outcome = flight.outcome;
  const double staleness = static_cast<double>(version_ - flight.start_version);
  // The launch count keys the upload (like the fault and transport streams):
  // a client can legitimately upload twice against the same model version,
  // so only true re-deliveries may share a dedup key.
  const uint64_t attempt =
      client.times_selected > 0 ? static_cast<uint64_t>(client.times_selected) - 1 : 0;
  if (outcome.completed && staleness > config_.admission.async_max_staleness) {
    // Completed but too stale: the work is discarded. The bound is the old
    // hardcoded kMaxStaleness constant, now configurable (DESIGN.md §15);
    // its pinned default keeps this branch byte-identical.
    outcome.completed = false;
    outcome.reason = DropoutReason::kMissedDeadline;
  } else if (outcome.completed && outcome.corrupted &&
             !IsValidUpdateQuality(PoisonedQuality(outcome.corrupt_kind))) {
    // Server-side validation quarantines the poisoned update.
    outcome.completed = false;
    outcome.reason = DropoutReason::kCorrupted;
    ++rejected_updates_;
  }
  if (outcome.completed) {
    // The attack key is the model version the attacker trained against —
    // both it and the byzantine flag ride in the serialized flight, so the
    // crafted quality is identical across thread counts and resumes.
    FreshUpload upload;
    upload.outcome = &outcome;
    upload.observation = &flight.observation;
    upload.quality = UploadQuality(outcome, flight.start_version);
    upload.arrival.client_id = flight.client_id;
    upload.arrival.round = flight.start_version;
    upload.arrival.attempt = attempt;
    upload.arrival.staleness = staleness;
    upload.arrival.utility = upload.quality;
    // Server ingestion (DESIGN.md §15): one retirement is one ingestion
    // burst, keyed by the aggregation version; only this client's logged
    // upload can be replayed in it.
    std::vector<ClientContribution> redundant;
    if (IngestionOn()) {
      redundant = IngestBurst(version_, {&upload, 1}, {&flight.client_id, 1},
                              {&flight.observation, 1}, global);
    }
    if (outcome.completed) {
      ClientContribution contribution;
      contribution.client_id = flight.client_id;
      contribution.quality = upload.quality * upload.weight;
      contribution.staleness = staleness;
      buffer_.push_back(contribution);
      if (outcome.byzantine) {
        ++pending_byzantine_;
      }
    }
    buffer_.insert(buffer_.end(), redundant.begin(), redundant.end());
  }
  // Partial-work salvage (DESIGN.md §16): an interrupted flight's completed
  // local steps re-enter the aggregation buffer at step-count weight,
  // provided the partial also passes the bounded-staleness rule a full
  // update would face. The partial namespace offset keeps its dedup key
  // distinct from the launch-count key of the client's own full uploads.
  if (config_.salvage.enabled && staleness <= config_.admission.async_max_staleness) {
    PartialUpload partial;
    partial.outcome = &outcome;
    partial.arrival.client_id = flight.client_id;
    partial.arrival.round = flight.start_version;
    partial.arrival.attempt = kPartialUpdateAttempt + attempt;
    partial.arrival.staleness = staleness;
    partial.arrival.utility = 1.0 - EffectOf(outcome.technique).accuracy_impact;
    SalvagePartials(version_, {&partial, 1});
    if (outcome.salvaged) {
      ClientContribution contribution;
      contribution.client_id = flight.client_id;
      contribution.quality = UploadQuality(outcome, flight.start_version);
      contribution.staleness = staleness;
      contribution.weight = outcome.salvage_fraction;
      buffer_.push_back(contribution);
      if (outcome.byzantine) {
        ++pending_byzantine_;
      }
    }
  }
  BookOutcome(client, outcome, version_);
  if (policy_ != nullptr) {
    policy_->Report(flight.client_id, flight.observation, global, flight.technique,
                    outcome.completed, PolicyCredit(last_accuracy_delta_, flight.technique));
  }

  if (buffer_.size() >= config_.async_buffer) {
    const double before = surrogate_->GlobalAccuracy();
    AggregatorStats agg_stats;
    ApplyQualityAggregation(config_.aggregator, buffer_, &agg_stats);
    agg_tracker_.Record(pending_byzantine_, agg_stats);
    pending_byzantine_ = 0;
    surrogate_->RoundUpdate(buffer_);
    last_accuracy_delta_ = surrogate_->GlobalAccuracy() - before;
    buffer_.clear();

    // Self-healing hook (DESIGN.md §11): grade the aggregation that just
    // happened; snapshot on improvement, roll the surrogate / reward state /
    // policy back to the last known good version on divergence. Runs before
    // the version bump so the restored accuracy is what the history records.
    const double metric = surrogate_->GlobalAccuracy();
    CloseRound(version_, {.metric = metric, .loss = 1.0 - metric},
               [this](auto& a) { Io(a, surrogate_, last_accuracy_delta_); });

    ++version_;
    accuracy_history_.push_back(surrogate_->GlobalAccuracy());
  }
}

void AsyncEngine::RunUntil(size_t target_version) {
  while (version_ < target_version) {
    StepOnce();
  }
}

ExperimentResult AsyncEngine::Run() {
  RunUntil(config_.rounds);
  return Snapshot();
}

template <typename Self, typename Archive>
void AsyncEngine::Fields(Self& self, Archive& a) {
  Io(a, self.now_s_, self.version_, self.last_accuracy_delta_);
  OutcomeBooksIo(self, a, /*edge_orphaned=*/false);
  Io(a, self.rng_);
  IoFixed(a, self.clients_, "checkpoint population size mismatch");
  IoFixed(a, self.busy_, "checkpoint population size mismatch");
  Io(a, self.in_flight_, self.buffer_, self.surrogate_, self.accountant_, self.tracker_,
     self.injector_);
  PolicyIo(self, a, "checkpoint policy presence mismatch");
  Io(a, self.pending_byzantine_, self.agg_tracker_, self.transport_tracker_, self.guard_);
  IngressIo(self, a);
  Io(a, self.redundant_mb_, self.salvage_tracker_);
  // The RecoveryTracker stays the final section of every engine payload:
  // the recovery tests strip it off the tail to compare training state.
  Io(a, self.recovery_tracker_);
}

void AsyncEngine::SaveState(CheckpointWriter& w) const { Fields(*this, w); }

void AsyncEngine::LoadState(CheckpointReader& r) { Fields(*this, r); }

}  // namespace floatfl
