#include "src/fl/async_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/agg/quality_agg.h"
#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/failure/checkpoint_util.h"
#include "src/fl/cost_model.h"

namespace floatfl {

AsyncEngine::AsyncEngine(const ExperimentConfig& config, TuningPolicy* policy)
    : config_(config),
      policy_(policy),
      clients_(BuildPopulation(GetDatasetSpec(config.dataset), config.num_clients, config.alpha,
                               config.interference, config.seed)),
      tracker_(config.num_clients),
      rng_(config.seed ^ 0xA5F1C3D2E4B60789ULL),
      busy_(config.num_clients, false) {
  ValidateExperimentConfig(config_);
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
  injector_ = FaultInjector(config_.faults, config_.seed, config_.num_clients);
  transport_ = Transport(config_.faults, config_.seed);
  guard_ = TrainingGuard(config_.guard);
  overload_ = OverloadInjector(config_.faults, config_.seed);
  admission_ = AdmissionController(config_.admission);
  update_log_ = UpdateLog(config_.num_clients);
  const size_t threads = ResolveThreadCount(config.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  if (config_.deadline_s <= 0.0) {
    config_.deadline_s = AutoDeadlineSeconds(config_, clients_);
  }
  reference_ = ComputePopulationReference(clients_);
  std::vector<ClientShard> shards;
  shards.reserve(clients_.size());
  for (const auto& c : clients_) {
    shards.push_back(c.shard());
  }
  // The surrogate's participation target for async FL is the buffer size:
  // each aggregation folds in `async_buffer` updates.
  surrogate_ = std::make_unique<SurrogateAccuracyModel>(
      SurrogateConfigFor(GetDatasetSpec(config.dataset),
                         static_cast<double>(config.async_buffer)),
      shards);
}

ClientRoundOutcome AsyncEngine::SimulateAsyncClient(Client& client, size_t transfer_round,
                                                    double now_s, TechniqueKind technique,
                                                    const FaultDecision& fault) const {
  ClientRoundOutcome outcome;
  outcome.client_id = client.id();
  outcome.technique = technique;

  const ModelProfile& model = GetModelProfile(config_.model);
  const DatasetSpec& dataset = GetDatasetSpec(config_.dataset);
  const ResourceAvailability avail = client.interference().At(now_s);

  RoundCostInputs inputs;
  inputs.model = &model;
  inputs.dataset = &dataset;
  inputs.local_samples = client.shard().total;
  inputs.epochs = config_.epochs;
  inputs.batch_size = config_.batch_size;
  inputs.technique = technique;
  inputs.device_gflops = client.compute().GflopsAt(now_s);
  inputs.bandwidth_mbps = client.network().BandwidthMbpsAt(now_s);
  inputs.device_memory_gb = client.compute().MemoryGb();
  inputs.availability = avail;
  outcome.costs = ComputeRoundCosts(inputs);

  // Salvage metadata (DESIGN.md §16); see SyncEngine::SimulateClient. Pure
  // arithmetic, filled in even when salvage is disabled.
  outcome.salvage_total_steps =
      TotalLocalSteps(inputs.local_samples, config_.epochs, config_.batch_size);
  auto mark_salvage = [&outcome](double trained_s, double train_time_s) {
    outcome.salvage_fraction =
        CompletedStepFraction(trained_s, train_time_s, outcome.salvage_total_steps);
    outcome.salvage_steps = static_cast<size_t>(std::llround(
        outcome.salvage_fraction * static_cast<double>(outcome.salvage_total_steps)));
  };

  if (config_.assume_no_dropouts) {
    // Injected faults still apply in the counterfactual (see SyncEngine).
    if (fault.crash) {
      mark_salvage(fault.crash_fraction * outcome.costs.total_time_s -
                       0.5 * outcome.costs.comm_time_s,
                   outcome.costs.train_time_s);
      outcome.reason = DropoutReason::kCrashed;
      outcome.costs.train_time_s *= fault.crash_fraction;
      outcome.costs.comm_time_s *= fault.crash_fraction;
      outcome.time_spent_s = fault.crash_fraction * outcome.costs.total_time_s;
      return outcome;
    }
    outcome.completed = true;
    outcome.time_spent_s = outcome.costs.total_time_s;
    if (fault.corrupt) {
      outcome.corrupted = true;
      outcome.corrupt_kind = fault.corrupt_kind;
    }
    outcome.byzantine = fault.byzantine;
    return outcome;
  }
  if (outcome.costs.out_of_memory) {
    outcome.reason = DropoutReason::kOutOfMemory;
    outcome.costs.train_time_s = 0.0;
    outcome.costs.comm_time_s *= 0.5;
    outcome.costs.peak_memory_mb = 0.0;
    outcome.time_spent_s = outcome.costs.comm_time_s;
    return outcome;
  }

  if (transport_.enabled()) {
    // Lossy-transport path (DESIGN.md §10). Async FL has no round deadline,
    // so transfers only fail by exhausting their retry budget; a timed-out
    // client simply surfaces late with nothing to aggregate.
    const CostEffect& effect = EffectOf(technique);
    const double kNoBudget = std::numeric_limits<double>::infinity();
    TransferOptions download_opts;
    download_opts.payload_mb = model.weight_mb;
    download_opts.start_s = now_s;
    download_opts.budget_s = kNoBudget;
    download_opts.leg = TransferLeg::kDownload;
    download_opts.resumable = true;
    download_opts.availability = avail.network;
    const TransferResult download =
        transport_.Transfer(transfer_round, client.id(), client.network(), download_opts);
    outcome.transfer_attempts = download.attempts;
    outcome.retransmitted_mb = download.retransmitted_mb;
    outcome.salvaged_mb = download.salvaged_mb;
    outcome.transfer_progress_mb = download.progress_mb;
    outcome.transfer_backoff_s = download.backoff_s;
    if (!download.delivered) {
      outcome.reason = DropoutReason::kTransferTimedOut;
      outcome.costs.train_time_s = 0.0;
      outcome.costs.comm_time_s = download.wire_time_s;
      outcome.costs.traffic_mb = download.wire_mb;
      outcome.costs.peak_memory_mb = 0.0;
      outcome.time_spent_s = download.elapsed_s;
      return outcome;
    }
    const double train_time = outcome.costs.train_time_s;
    TransferOptions upload_opts;
    upload_opts.payload_mb = model.weight_mb * effect.comm_mult;
    upload_opts.start_s = now_s + download.elapsed_s + train_time;
    upload_opts.budget_s = kNoBudget;
    upload_opts.leg = TransferLeg::kUpload;
    upload_opts.resumable = config_.faults.resumable_uploads;
    upload_opts.availability = avail.network;
    const TransferResult upload =
        transport_.Transfer(transfer_round, client.id(), client.network(), upload_opts);
    outcome.transfer_attempts += upload.attempts;
    outcome.retransmitted_mb += upload.retransmitted_mb;
    outcome.salvaged_mb += upload.salvaged_mb;
    outcome.transfer_progress_mb += upload.progress_mb;
    outcome.transfer_backoff_s += upload.backoff_s;
    const double total_time = download.elapsed_s + train_time + upload.elapsed_s;
    outcome.costs.comm_time_s = download.wire_time_s + upload.wire_time_s;
    outcome.costs.traffic_mb = download.wire_mb + upload.wire_mb;
    outcome.costs.total_time_s = total_time;
    if (fault.crash) {
      const double crash_time = fault.crash_fraction * total_time;
      if (client.availability().AvailableFor(now_s, crash_time)) {
        mark_salvage(crash_time - download.elapsed_s, train_time);
        outcome.reason = DropoutReason::kCrashed;
        outcome.costs.train_time_s *= fault.crash_fraction;
        outcome.costs.comm_time_s *= fault.crash_fraction;
        outcome.time_spent_s = crash_time;
        return outcome;
      }
    }
    if (!upload.delivered) {
      // Training finished; the salvageable partial is the acked prefix of
      // the upload the server already holds, measured in payload bytes.
      outcome.salvage_fraction =
          upload_opts.payload_mb > 0.0
              ? std::min(1.0, upload.progress_mb / upload_opts.payload_mb)
              : 0.0;
      outcome.salvage_steps =
          outcome.salvage_fraction > 0.0 ? outcome.salvage_total_steps : 0;
      outcome.reason = DropoutReason::kTransferTimedOut;
      outcome.time_spent_s = total_time;
      return outcome;
    }
    if (!client.availability().AvailableFor(now_s, total_time)) {
      outcome.reason = DropoutReason::kDeparted;
      const double available =
          std::max(0.0, client.availability().PeriodEndAfter(now_s) - now_s);
      mark_salvage(available - download.elapsed_s, train_time);
      const double frac = std::min(1.0, available / std::max(1e-9, total_time));
      outcome.costs.train_time_s *= frac;
      outcome.costs.comm_time_s *= frac;
      outcome.time_spent_s = available;
      outcome.deadline_diff =
          std::max(0.0, (total_time - available) / config_.deadline_s);
      return outcome;
    }
    outcome.completed = true;
    outcome.time_spent_s = total_time;
    const double transfer_secs = outcome.costs.comm_time_s + outcome.transfer_backoff_s;
    if (transfer_secs > 0.0) {
      outcome.effective_mbps =
          (download_opts.payload_mb + upload_opts.payload_mb) * 8.0 / transfer_secs;
    }
    if (fault.corrupt) {
      outcome.corrupted = true;
      outcome.corrupt_kind = fault.corrupt_kind;
    }
    outcome.byzantine = fault.byzantine;
    return outcome;
  }

  if (fault.crash) {
    // The process dies mid-round if the device is still around at that
    // point; otherwise the departure below ends the round first, benignly.
    const double crash_time = fault.crash_fraction * outcome.costs.total_time_s;
    if (client.availability().AvailableFor(now_s, crash_time)) {
      // The download (half the comm budget) precedes training.
      mark_salvage(crash_time - 0.5 * outcome.costs.comm_time_s, outcome.costs.train_time_s);
      outcome.reason = DropoutReason::kCrashed;
      outcome.costs.train_time_s *= fault.crash_fraction;
      outcome.costs.comm_time_s *= fault.crash_fraction;
      outcome.time_spent_s = crash_time;
      return outcome;
    }
  }
  // Async FL has no hard deadline, but a device that leaves mid-training
  // still loses its work.
  if (!client.availability().AvailableFor(now_s, outcome.costs.total_time_s)) {
    outcome.reason = DropoutReason::kDeparted;
    const double available = std::max(0.0, client.availability().PeriodEndAfter(now_s) - now_s);
    const double frac = std::min(1.0, available / std::max(1e-9, outcome.costs.total_time_s));
    mark_salvage(frac * outcome.costs.train_time_s, outcome.costs.train_time_s);
    outcome.costs.train_time_s *= frac;
    outcome.costs.comm_time_s *= frac;
    outcome.time_spent_s = available;
    // The overshoot relative to the sync deadline still informs the agent.
    outcome.deadline_diff =
        std::max(0.0, (outcome.costs.total_time_s - available) / config_.deadline_s);
    return outcome;
  }
  outcome.completed = true;
  outcome.time_spent_s = outcome.costs.total_time_s;
  if (fault.corrupt) {
    outcome.corrupted = true;
    outcome.corrupt_kind = fault.corrupt_kind;
  }
  outcome.byzantine = fault.byzantine;
  return outcome;
}

void AsyncEngine::LaunchClients() {
  // A network blackout cuts the server off entirely: no launches until the
  // window passes (in-flight clients keep training locally).
  if (injector_.enabled() && injector_.InBlackout(now_s_)) {
    return;
  }

  GlobalObservation global;
  global.batch_size = config_.batch_size;
  global.epochs = config_.epochs;
  global.participants = config_.async_concurrency;

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
  ParallelFor(pool_.get(), launches.size(), [&](size_t i) {
    InFlight& flight = launches[i];
    flight.outcome = SimulateAsyncClient(clients_[flight.client_id], transfer_rounds[i], now_s_,
                                         flight.technique, faults[i]);
    flight.finish_time_s = now_s_ + std::max(1.0, flight.outcome.time_spent_s);
  });

  // Phase 3 (sequential, launch order): commit to the in-flight set.
  for (auto& flight : launches) {
    in_flight_.push_back(flight);
  }
}

void AsyncEngine::StepOnce() {
  injector_.BeginRound(version_);
  guard_.BeginRound(version_);

  GlobalObservation global;
  global.batch_size = config_.batch_size;
  global.epochs = config_.epochs;
  global.participants = config_.async_concurrency;

  LaunchClients();
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
  const double staleness = static_cast<double>(version_ - flight.start_version);
  bool accepted = false;
  DropoutReason drop_reason = DropoutReason::kNone;
  if (!flight.outcome.completed) {
    drop_reason = flight.outcome.reason == DropoutReason::kNone ? DropoutReason::kMissedDeadline
                                                                : flight.outcome.reason;
  } else if (staleness > config_.admission.async_max_staleness) {
    // Completed but too stale: the work is discarded. The bound is the old
    // hardcoded kMaxStaleness constant, now configurable (DESIGN.md §15);
    // its pinned default keeps this branch byte-identical.
    drop_reason = DropoutReason::kMissedDeadline;
  } else if (flight.outcome.corrupted &&
             !IsValidUpdateQuality(PoisonedQuality(flight.outcome.corrupt_kind))) {
    // Server-side validation quarantines the poisoned update.
    drop_reason = DropoutReason::kCorrupted;
    ++rejected_updates_;
  } else {
    ClientContribution contribution;
    contribution.client_id = flight.client_id;
    contribution.quality = 1.0 - EffectOf(flight.technique).accuracy_impact;
    if (flight.outcome.byzantine) {
      // The attack key uses the model version the attacker trained against —
      // both it and the byzantine flag ride in the serialized flight, so the
      // crafted quality is identical across thread counts and resumes.
      contribution.quality =
          injector_.AttackedQuality(contribution.quality, flight.start_version, flight.client_id);
    }
    contribution.staleness = staleness;
    bool admit_ok = true;
    if (!overload_.enabled() && !admission_.enabled()) {
      buffer_.push_back(contribution);
    } else {
      // Server ingestion (DESIGN.md §15): one retirement is one ingestion
      // burst — the delivered upload plus whatever at-least-once duplicates
      // of it and replays of the client's last accepted upload the overload
      // injector adds, keyed by the aggregation version. The admission gate
      // rules on the burst in arrival order; a redundant delivery that
      // passes (or meets an unguarded server) is re-processed in full —
      // waste plus an extra stale copy in the aggregation buffer.
      struct IngressDelivery {
        AdmissionController::Arrival arrival;
        bool redundant = false;
        TechniqueKind technique = TechniqueKind::kNone;
        double quality = 0.0;
        double upload_comm_s = 0.0;
        double upload_mb = 0.0;
      };
      // The launch count keys the upload (like the fault and transport
      // streams): a client can legitimately upload twice against the same
      // model version, so only true re-deliveries may share a dedup key.
      const uint64_t attempt =
          client.times_selected > 0 ? static_cast<uint64_t>(client.times_selected) - 1 : 0;
      std::vector<IngressDelivery> deliveries;
      IngressDelivery original;
      original.arrival.client_id = flight.client_id;
      original.arrival.round = flight.start_version;
      original.arrival.attempt = attempt;
      original.arrival.staleness = staleness;
      original.arrival.utility = contribution.quality;
      original.technique = flight.technique;
      original.quality = contribution.quality;
      original.upload_comm_s = 0.5 * flight.outcome.costs.comm_time_s;  // upload leg
      original.upload_mb = 0.5 * flight.outcome.costs.traffic_mb;
      deliveries.push_back(original);
      if (overload_.enabled()) {
        const size_t copies = overload_.DuplicateCopies(version_, flight.client_id);
        for (size_t c = 0; c < copies; ++c) {
          IngressDelivery d = original;
          d.redundant = true;
          deliveries.push_back(d);
        }
        const LoggedUpload* logged = update_log_.Get(flight.client_id);
        if (logged != nullptr && logged->round < version_) {
          const size_t slots = overload_.ReplaySlots(version_, flight.client_id);
          for (size_t s = 0; s < slots; ++s) {
            IngressDelivery d;
            d.arrival.client_id = flight.client_id;
            d.arrival.round = logged->round;
            d.arrival.attempt = logged->attempt;
            d.arrival.staleness = static_cast<double>(version_ - logged->round);
            // A stale upload ranks below fresh ones under utility-priority
            // shedding, more so the older it is.
            d.arrival.utility = logged->quality / (1.0 + d.arrival.staleness);
            d.redundant = true;
            d.technique = static_cast<TechniqueKind>(logged->technique);
            d.quality = logged->quality;
            d.upload_comm_s = logged->upload_comm_s;
            d.upload_mb = logged->upload_mb;
            deliveries.push_back(d);
          }
        }
      }
      std::vector<AdmissionController::Verdict> verdicts;
      if (admission_.enabled()) {
        std::vector<AdmissionController::Arrival> arrivals;
        arrivals.reserve(deliveries.size());
        for (const IngressDelivery& d : deliveries) {
          arrivals.push_back(d.arrival);
        }
        verdicts = admission_.Admit(version_, arrivals, &admission_tracker_);
      } else {
        AdmissionController::Verdict pass;
        pass.admitted = true;
        verdicts.assign(deliveries.size(), pass);
      }
      for (size_t i = 0; i < deliveries.size(); ++i) {
        const IngressDelivery& d = deliveries[i];
        const AdmissionController::Verdict& v = verdicts[i];
        if (!d.redundant) {
          if (v.admitted) {
            ClientContribution weighted = contribution;
            weighted.quality *= v.weight;
            buffer_.push_back(weighted);
          } else {
            admit_ok = false;
            drop_reason = v.reason;
          }
          continue;
        }
        if (v.admitted) {
          accountant_.Record(0.0, d.upload_comm_s, 0.0, false);
          redundant_mb_ += d.upload_mb;
          ClientContribution extra;
          extra.client_id = flight.client_id;
          extra.quality = d.quality * v.weight;
          extra.staleness = d.arrival.staleness;
          buffer_.push_back(extra);
        } else {
          // Rejected at the doorstep before any processing: one tracker
          // record and one participated=false policy report — no waste
          // charge and no guard/cooldown side effects.
          tracker_.Record(flight.client_id, d.technique, false, v.reason);
          CountDropout(v.reason, dropout_breakdown_);
          if (policy_ != nullptr) {
            policy_->Report(flight.client_id, flight.observation, global, d.technique, false,
                            0.0);
          }
        }
      }
    }
    if (admit_ok) {
      if (flight.outcome.byzantine) {
        ++pending_byzantine_;
      }
      accepted = true;
      ++client.times_completed;
      if (overload_.enabled()) {
        // Remember the accepted upload (at its original keys): the replay
        // fault re-delivers exactly this entry at a later version.
        LoggedUpload entry;
        entry.round = flight.start_version;
        entry.attempt = client.times_selected > 0
                            ? static_cast<uint64_t>(client.times_selected) - 1
                            : 0;
        entry.quality = contribution.quality;
        entry.upload_comm_s = 0.5 * flight.outcome.costs.comm_time_s;
        entry.upload_mb = 0.5 * flight.outcome.costs.traffic_mb;
        entry.technique = static_cast<uint32_t>(flight.technique);
        update_log_.Record(flight.client_id, entry);
      }
    }
  }
  // Partial-work salvage (DESIGN.md §16): an interrupted flight's completed
  // local steps re-enter the aggregation buffer at step-count weight instead
  // of being discarded — provided the partial clears the min-progress bar,
  // the bounded-staleness rule a full update would face, and (when enabled)
  // the admission gate under its dedicated partial attempt key. The
  // retirement still books as a dropout; only the spend flips to useful.
  bool salvaged = false;
  if (config_.salvage.enabled && !flight.outcome.completed &&
      staleness <= config_.admission.async_max_staleness) {
    const ClientRoundOutcome& o = flight.outcome;
    const bool interrupted = o.reason == DropoutReason::kCrashed ||
                             o.reason == DropoutReason::kDeparted ||
                             o.reason == DropoutReason::kTransferTimedOut;
    if (interrupted && o.salvage_fraction > 0.0) {
      if (o.salvage_fraction < config_.salvage.min_progress) {
        salvage_tracker_.RecordPartialBelowMin();
      } else {
        bool admit_partial = true;
        if (admission_.enabled()) {
          AdmissionController::Arrival a;
          a.client_id = flight.client_id;
          a.round = flight.start_version;
          // The partial namespace offset keeps the key distinct from the
          // launch-count key of the client's own full uploads.
          a.attempt = kPartialUpdateAttempt +
                      (client.times_selected > 0
                           ? static_cast<uint64_t>(client.times_selected) - 1
                           : 0);
          a.staleness = staleness;
          a.utility =
              (1.0 - EffectOf(flight.technique).accuracy_impact) * o.salvage_fraction;
          std::vector<AdmissionController::Arrival> arrivals;
          arrivals.push_back(a);
          const std::vector<AdmissionController::Verdict> verdicts =
              admission_.Admit(version_, arrivals, &admission_tracker_);
          admit_partial = verdicts[0].admitted;
        }
        if (!admit_partial) {
          salvage_tracker_.RecordPartialRejected();
        } else {
          salvaged = true;
          ClientContribution partial;
          partial.client_id = flight.client_id;
          partial.quality = 1.0 - EffectOf(flight.technique).accuracy_impact;
          if (o.byzantine) {
            partial.quality = injector_.AttackedQuality(partial.quality, flight.start_version,
                                                        flight.client_id);
            ++pending_byzantine_;
          }
          partial.staleness = staleness;
          partial.weight = o.salvage_fraction;
          buffer_.push_back(partial);
          const double acked_mb =
              o.reason == DropoutReason::kTransferTimedOut
                  ? o.salvage_fraction * GetModelProfile(config_.model).weight_mb *
                        EffectOf(flight.technique).comm_mult
                  : 0.0;
          salvage_tracker_.RecordPartialSalvaged(o.salvage_steps, o.salvage_fraction, acked_mb);
        }
      }
    }
  }
  if (!accepted) {
    CountDropout(drop_reason, dropout_breakdown_);
    if (config_.faults.retry_cooldown_rounds > 0 &&
        (drop_reason == DropoutReason::kCrashed || drop_reason == DropoutReason::kCorrupted)) {
      client.cooldown_until_round = version_ + 1 + config_.faults.retry_cooldown_rounds;
    }
  }
  client.last_round_duration_s = flight.outcome.time_spent_s;
  client.UpdateDeadlineDiff(flight.outcome.deadline_diff);
  accountant_.Record(flight.outcome.costs.train_time_s, flight.outcome.costs.comm_time_s,
                     flight.outcome.costs.peak_memory_mb, accepted || salvaged);
  tracker_.Record(flight.client_id, flight.technique, accepted, drop_reason);
  guard_.Observe(flight.technique, accepted, drop_reason, version_);
  if (flight.outcome.transfer_attempts > 0) {
    transport_tracker_.Record(flight.outcome.transfer_attempts, flight.outcome.costs.traffic_mb,
                              flight.outcome.retransmitted_mb, flight.outcome.salvaged_mb,
                              flight.outcome.transfer_progress_mb,
                              flight.outcome.transfer_backoff_s,
                              flight.outcome.reason == DropoutReason::kTransferTimedOut);
  }
  if (policy_ != nullptr) {
    const double client_accuracy_credit = guard_.SanitizeReward(
        last_accuracy_delta_ * (1.0 - EffectOf(flight.technique).accuracy_impact));
    policy_->Report(flight.client_id, flight.observation, global, flight.technique, accepted,
                    client_accuracy_credit);
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
    {
      HealthSignal health;
      health.metric = surrogate_->GlobalAccuracy();
      health.loss = 1.0 - health.metric;
      guard_.EndRound(
          version_, health,
          [this](CheckpointWriter& w) {
            surrogate_->SaveState(w);
            w.F64(last_accuracy_delta_);
            w.Bool(policy_ != nullptr);
            if (policy_ != nullptr) {
              policy_->SaveState(w);
            }
          },
          [this](CheckpointReader& r) {
            surrogate_->LoadState(r);
            last_accuracy_delta_ = r.F64();
            const bool had_policy = r.Bool();
            if (had_policy && policy_ != nullptr) {
              policy_->LoadState(r);
            }
          });
    }

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

ExperimentResult AsyncEngine::Snapshot() const {
  ExperimentResult result;
  const std::vector<double> accuracies = surrogate_->AllClientAccuracies();
  result.accuracy_avg = Mean(accuracies);
  result.accuracy_top10 = TopFractionMean(accuracies, 0.10);
  result.accuracy_bottom10 = BottomFractionMean(accuracies, 0.10);
  result.global_accuracy = surrogate_->GlobalAccuracy();
  result.total_selected = tracker_.TotalSelected();
  result.total_completed = tracker_.TotalCompleted();
  result.total_dropouts = tracker_.TotalDropouts();
  result.never_selected = tracker_.NeverSelected();
  result.never_completed = tracker_.NeverCompleted();
  result.dropout_breakdown = dropout_breakdown_;
  result.rejected_updates = rejected_updates_;
  result.byzantine_selected = agg_tracker_.TotalByzantineSelected();
  result.krum_rejections = agg_tracker_.TotalKrumRejections();
  result.updates_trimmed = agg_tracker_.TotalTrimmed();
  result.transfer_attempts = transport_tracker_.TotalAttempts();
  result.wire_mb = transport_tracker_.TotalWireMb();
  result.retransmitted_mb = transport_tracker_.TotalRetransmittedMb();
  result.salvaged_mb = transport_tracker_.TotalSalvagedMb();
  result.transfer_backoff_s = transport_tracker_.TotalBackoffS();
  result.useful = accountant_.Useful();
  result.wasted = accountant_.Wasted();
  result.wall_clock_hours = now_s_ / 3600.0;
  result.per_technique = tracker_.PerTechnique();
  result.per_technique_dropouts = tracker_.DropoutsByTechnique();
  result.guard_snapshots = guard_.tracker().Snapshots();
  result.watchdog_triggers = guard_.tracker().WatchdogTriggers();
  result.rollbacks = guard_.tracker().Rollbacks();
  result.quarantined_actions = guard_.tracker().MaskedActions();
  result.quarantine_openings = guard_.tracker().QuarantineOpenings();
  result.rejected_rewards = guard_.tracker().RejectedRewards();
  result.safe_mode_rounds = guard_.tracker().SafeModeRounds();
  result.recovery_restarts = recovery_tracker_.Restarts();
  result.recovery_archives_skipped = recovery_tracker_.ArchivesSkipped();
  result.recovery_rounds_replayed = recovery_tracker_.RoundsReplayed();
  result.recovery_checkpoints_written = recovery_tracker_.CheckpointsWritten();
  result.recovery_checkpoints_failed = recovery_tracker_.CheckpointsFailed();
  result.admission_admitted = admission_tracker_.Admitted();
  result.admission_deduplicated = admission_tracker_.Deduplicated();
  result.admission_shed = admission_tracker_.Shed();
  result.admission_rate_limited = admission_tracker_.RateLimited();
  result.admission_replay_rejected = admission_tracker_.ReplayRejected();
  result.admission_peak_queue_depth = admission_tracker_.PeakQueueDepth();
  result.redundant_mb = redundant_mb_;
  result.partials_salvaged = salvage_tracker_.PartialsSalvaged();
  result.partials_below_min = salvage_tracker_.PartialsBelowMin();
  result.partials_rejected = salvage_tracker_.PartialsRejected();
  result.salvaged_steps = salvage_tracker_.SalvagedSteps();
  result.salvaged_progress_mb = salvage_tracker_.SalvagedProgressMb();
  result.transfer_progress_mb = transport_tracker_.TotalProgressMb();
  result.accuracy_history = accuracy_history_;
  result.per_client_selected = tracker_.selected();
  result.per_client_completed = tracker_.completed();
  return result;
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
  w.Size(rejected_updates_);
  w.Size(dropout_breakdown_.unavailable);
  w.Size(dropout_breakdown_.out_of_memory);
  w.Size(dropout_breakdown_.missed_deadline);
  w.Size(dropout_breakdown_.departed);
  w.Size(dropout_breakdown_.crashed);
  w.Size(dropout_breakdown_.corrupted);
  w.Size(dropout_breakdown_.rejected);
  w.Size(dropout_breakdown_.transfer_timed_out);
  w.Size(dropout_breakdown_.shed);
  w.Size(dropout_breakdown_.duplicate);
  w.Size(dropout_breakdown_.replayed);
  w.Size(dropout_breakdown_.rate_limited);
  w.Size(dropout_breakdown_.backup_covered);
  w.Size(dropout_breakdown_.backup_redundant);
  w.F64Vec(accuracy_history_);
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
  w.Bool(policy_ != nullptr);
  if (policy_ != nullptr) {
    policy_->SaveState(w);
  }
  w.Size(pending_byzantine_);
  agg_tracker_.SaveState(w);
  transport_tracker_.SaveState(w);
  guard_.SaveState(w);
  admission_.SaveState(w);
  update_log_.SaveState(w);
  admission_tracker_.SaveState(w);
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
  rejected_updates_ = r.Size();
  dropout_breakdown_.unavailable = r.Size();
  dropout_breakdown_.out_of_memory = r.Size();
  dropout_breakdown_.missed_deadline = r.Size();
  dropout_breakdown_.departed = r.Size();
  dropout_breakdown_.crashed = r.Size();
  dropout_breakdown_.corrupted = r.Size();
  dropout_breakdown_.rejected = r.Size();
  dropout_breakdown_.transfer_timed_out = r.Size();
  dropout_breakdown_.shed = r.Size();
  dropout_breakdown_.duplicate = r.Size();
  dropout_breakdown_.replayed = r.Size();
  dropout_breakdown_.rate_limited = r.Size();
  dropout_breakdown_.backup_covered = r.Size();
  dropout_breakdown_.backup_redundant = r.Size();
  accuracy_history_ = r.F64Vec();
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
  const bool had_policy = r.Bool();
  FLOATFL_CHECK_MSG(had_policy == (policy_ != nullptr) || !r.ok(),
                    "checkpoint policy presence mismatch");
  if (had_policy != (policy_ != nullptr)) {
    return;
  }
  if (policy_ != nullptr) {
    policy_->LoadState(r);
  }
  pending_byzantine_ = r.Size();
  agg_tracker_.LoadState(r);
  transport_tracker_.LoadState(r);
  guard_.LoadState(r);
  admission_.LoadState(r);
  update_log_.LoadState(r);
  admission_tracker_.LoadState(r);
  redundant_mb_ = r.F64();
  salvage_tracker_.LoadState(r);
  recovery_tracker_.LoadState(r);
}

}  // namespace floatfl
