#include "src/fl/async_engine.h"

#include <algorithm>
#include <limits>

#include "src/agg/quality_agg.h"
#include "src/common/check.h"
#include "src/failure/checkpoint_util.h"
#include "src/fl/cost_model.h"

namespace floatfl {

// The surrogate's participation target for async FL is the buffer size:
// each aggregation folds in `async_buffer` updates.
AsyncEngine::AsyncEngine(const ExperimentConfig& config, TuningPolicy* policy)
    : SurrogateEngine(config, policy, config.async_buffer),
      rng_(config.seed ^ 0xA5F1C3D2E4B60789ULL),
      busy_(config.num_clients, false) {
  // FedBuff's per-client pacing has no round boundary an edge tier could
  // aggregate at; the async engine keeps star semantics and refuses an
  // enabled topology rather than silently ignoring it.
  FLOATFL_CHECK_MSG(!config_.topology.enabled(),
                    "async engine does not support hierarchical topology");
  // Speculation hedges against a round deadline; async FL has none, so a
  // backup could never beat its primary to anything. Refuse rather than
  // silently ignore (partial-work salvage is supported).
  FLOATFL_CHECK_MSG(!config_.salvage.speculation,
                    "async engine does not support speculative re-execution");
}

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
    CloseRound(
        version_, {.metric = metric, .loss = 1.0 - metric},
        [this](CheckpointWriter& w) {
          surrogate_->SaveState(w);
          w.F64(last_accuracy_delta_);
        },
        [this](CheckpointReader& r) {
          surrogate_->LoadState(r);
          last_accuracy_delta_ = r.F64();
        });

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

namespace {

void SaveOutcome(CheckpointWriter& w, const ClientRoundOutcome& o) {
  w.Size(o.client_id);
  w.U32(static_cast<uint32_t>(o.technique));
  w.Bool(o.completed);
  w.U32(static_cast<uint32_t>(o.reason));
  w.F64(o.costs.train_time_s);
  w.F64(o.costs.comm_time_s);
  w.F64(o.costs.total_time_s);
  w.F64(o.costs.traffic_mb);
  w.F64(o.costs.peak_memory_mb);
  w.Bool(o.costs.out_of_memory);
  w.F64(o.time_spent_s);
  w.F64(o.deadline_diff);
  w.Bool(o.corrupted);
  w.U32(o.corrupt_kind);
  w.Bool(o.byzantine);
  w.Size(o.transfer_attempts);
  w.F64(o.retransmitted_mb);
  w.F64(o.salvaged_mb);
  w.F64(o.transfer_backoff_s);
  w.F64(o.effective_mbps);
  w.F64(o.transfer_progress_mb);
  w.F64(o.salvage_fraction);
  w.Size(o.salvage_steps);
  w.Size(o.salvage_total_steps);
  w.Bool(o.salvaged);
}

void LoadOutcome(CheckpointReader& r, ClientRoundOutcome& o) {
  o.client_id = r.Size();
  o.technique = static_cast<TechniqueKind>(r.U32());
  o.completed = r.Bool();
  o.reason = static_cast<DropoutReason>(r.U32());
  o.costs.train_time_s = r.F64();
  o.costs.comm_time_s = r.F64();
  o.costs.total_time_s = r.F64();
  o.costs.traffic_mb = r.F64();
  o.costs.peak_memory_mb = r.F64();
  o.costs.out_of_memory = r.Bool();
  o.time_spent_s = r.F64();
  o.deadline_diff = r.F64();
  o.corrupted = r.Bool();
  o.corrupt_kind = r.U32();
  o.byzantine = r.Bool();
  o.transfer_attempts = r.Size();
  o.retransmitted_mb = r.F64();
  o.salvaged_mb = r.F64();
  o.transfer_backoff_s = r.F64();
  o.effective_mbps = r.F64();
  o.transfer_progress_mb = r.F64();
  o.salvage_fraction = r.F64();
  o.salvage_steps = r.Size();
  o.salvage_total_steps = r.Size();
  o.salvaged = r.Bool();
}

}  // namespace

void AsyncEngine::SaveState(CheckpointWriter& w) const {
  w.F64(now_s_);
  w.Size(version_);
  w.F64(last_accuracy_delta_);
  SaveOutcomeBooks(w, /*edge_orphaned=*/false);
  SaveRng(w, rng_);
  w.Size(clients_.size());
  for (const auto& client : clients_) {
    client.SaveState(w);
  }
  w.BoolVec(busy_);
  w.Size(in_flight_.size());
  for (const auto& flight : in_flight_) {
    w.Size(flight.client_id);
    w.F64(flight.finish_time_s);
    w.Size(flight.start_version);
    w.U32(static_cast<uint32_t>(flight.technique));
    SaveOutcome(w, flight.outcome);
    w.F64(flight.observation.cpu_avail);
    w.F64(flight.observation.mem_avail);
    w.F64(flight.observation.net_avail);
    w.F64(flight.observation.deadline_diff);
  }
  w.Size(buffer_.size());
  for (const auto& contribution : buffer_) {
    w.Size(contribution.client_id);
    w.F64(contribution.quality);
    w.F64(contribution.staleness);
    w.F64(contribution.weight);
  }
  surrogate_->SaveState(w);
  accountant_.SaveState(w);
  tracker_.SaveState(w);
  injector_.SaveState(w);
  SavePolicy(w);
  w.Size(pending_byzantine_);
  agg_tracker_.SaveState(w);
  transport_tracker_.SaveState(w);
  guard_.SaveState(w);
  SaveIngress(w);
  w.F64(redundant_mb_);
  salvage_tracker_.SaveState(w);
  // The RecoveryTracker stays the final section of every engine payload:
  // the recovery tests strip it off the tail to compare training state.
  recovery_tracker_.SaveState(w);
}

void AsyncEngine::LoadState(CheckpointReader& r) {
  now_s_ = r.F64();
  version_ = r.Size();
  last_accuracy_delta_ = r.F64();
  LoadOutcomeBooks(r, /*edge_orphaned=*/false);
  LoadRng(r, rng_);
  const size_t n = r.Size();
  // A failed reader (truncated/corrupted archive) returns zeros; that is the
  // caller's error to report, not a process-aborting invariant violation.
  FLOATFL_CHECK_MSG(n == clients_.size() || !r.ok(), "checkpoint population size mismatch");
  if (n != clients_.size()) {
    return;
  }
  for (auto& client : clients_) {
    client.LoadState(r);
  }
  busy_ = r.BoolVec();
  in_flight_.clear();
  const size_t flights = r.Size();
  for (size_t i = 0; i < flights && r.ok(); ++i) {
    InFlight flight;
    flight.client_id = r.Size();
    flight.finish_time_s = r.F64();
    flight.start_version = r.Size();
    flight.technique = static_cast<TechniqueKind>(r.U32());
    LoadOutcome(r, flight.outcome);
    flight.observation.cpu_avail = r.F64();
    flight.observation.mem_avail = r.F64();
    flight.observation.net_avail = r.F64();
    flight.observation.deadline_diff = r.F64();
    in_flight_.push_back(flight);
  }
  buffer_.clear();
  const size_t buffered = r.Size();
  for (size_t i = 0; i < buffered && r.ok(); ++i) {
    ClientContribution contribution;
    contribution.client_id = r.Size();
    contribution.quality = r.F64();
    contribution.staleness = r.F64();
    contribution.weight = r.F64();
    buffer_.push_back(contribution);
  }
  surrogate_->LoadState(r);
  accountant_.LoadState(r);
  tracker_.LoadState(r);
  injector_.LoadState(r);
  const bool policy_matches = LoadPolicy(r);
  FLOATFL_CHECK_MSG(policy_matches || !r.ok(), "checkpoint policy presence mismatch");
  if (!policy_matches) {
    return;
  }
  pending_byzantine_ = r.Size();
  agg_tracker_.LoadState(r);
  transport_tracker_.LoadState(r);
  guard_.LoadState(r);
  LoadIngress(r);
  redundant_mb_ = r.F64();
  salvage_tracker_.LoadState(r);
  recovery_tracker_.LoadState(r);
}

}  // namespace floatfl
