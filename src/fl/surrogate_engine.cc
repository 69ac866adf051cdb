#include "src/fl/surrogate_engine.h"

#include <algorithm>
#include <cmath>

namespace floatfl {

SurrogateEngine::SurrogateEngine(const ExperimentConfig& config, TuningPolicy* policy,
                                 size_t participants)
    : config_(config),
      policy_(policy),
      clients_(BuildPopulation(GetDatasetSpec(config.dataset), config.num_clients, config.alpha,
                               config.interference, config.seed)),
      tracker_(config.num_clients) {
  ValidateExperimentConfig(config_);
  const size_t threads = ResolveThreadCount(config.num_threads);
  if (threads > 1) {
    // The calling thread participates in every ParallelFor, so `threads`
    // total threads do client work.
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  injector_ = FaultInjector(config_.faults, config_.seed, config_.num_clients);
  transport_ = Transport(config_.faults, config_.seed);
  guard_ = TrainingGuard(config_.guard);
  overload_ = OverloadInjector(config_.faults, config_.seed);
  admission_ = AdmissionController(config_.admission);
  update_log_ = UpdateLog(config_.num_clients);
  if (config_.deadline_s <= 0.0) {
    config_.deadline_s = AutoDeadlineSeconds(config_, clients_);
  }
  reference_ = ComputePopulationReference(clients_);
  std::vector<ClientShard> shards;
  shards.reserve(clients_.size());
  for (const auto& c : clients_) {
    shards.push_back(c.shard());
  }
  surrogate_ = std::make_unique<SurrogateAccuracyModel>(
      SurrogateConfigFor(GetDatasetSpec(config.dataset), static_cast<double>(participants)),
      shards);
}

ClientRoundOutcome SurrogateEngine::SimulateClientRound(Client& client, size_t transfer_key,
                                                        double now_s, TechniqueKind technique,
                                                        const FaultDecision& fault,
                                                        double budget_s,
                                                        double deadline_norm_s) const {
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

  // Salvage metadata (DESIGN.md §16): whole local steps this round would run
  // uninterrupted, and a quantizer mapping an interruption's trained seconds
  // onto completed whole steps. Pure arithmetic over quantities the
  // simulation computes anyway — no RNG, so filling it in unconditionally
  // keeps the salvage-off engine bit-identical.
  outcome.salvage_total_steps =
      TotalLocalSteps(inputs.local_samples, config_.epochs, config_.batch_size);
  auto mark_salvage = [&outcome](double trained_s, double train_time_s) {
    outcome.salvage_fraction =
        CompletedStepFraction(trained_s, train_time_s, outcome.salvage_total_steps);
    outcome.salvage_steps = static_cast<size_t>(std::llround(
        outcome.salvage_fraction * static_cast<double>(outcome.salvage_total_steps)));
  };

  if (fault.blackout) {
    // The server cannot reach the client during a network blackout: the task
    // push never happens and nothing runs on the device.
    outcome.reason = DropoutReason::kUnavailable;
    outcome.costs.train_time_s = 0.0;
    outcome.costs.comm_time_s = 0.0;
    outcome.costs.peak_memory_mb = 0.0;
    outcome.time_spent_s = 0.0;
    return outcome;
  }
  if (config_.assume_no_dropouts) {
    // Injected faults still apply in the counterfactual: the Figure-3
    // what-if removes *natural* dropouts, not deliberately injected ones
    // (and fault-scenario tests rely on this to isolate the injector).
    if (fault.crash) {
      const double crash_time = fault.crash_fraction * outcome.costs.total_time_s;
      // The download (half the comm budget) precedes training; whatever ran
      // after it and before the crash is salvageable progress.
      mark_salvage(crash_time - 0.5 * outcome.costs.comm_time_s, outcome.costs.train_time_s);
      outcome.reason = DropoutReason::kCrashed;
      outcome.costs.train_time_s *= fault.crash_fraction;
      outcome.costs.comm_time_s *= fault.crash_fraction;
      outcome.time_spent_s = std::min(crash_time, budget_s);
      return outcome;
    }
    outcome.completed = true;
    outcome.time_spent_s = std::min(outcome.costs.total_time_s, budget_s);
    if (fault.corrupt) {
      outcome.corrupted = true;
      outcome.corrupt_kind = fault.corrupt_kind;
    }
    outcome.byzantine = fault.byzantine;
    return outcome;
  }

  if (!client.availability().IsAvailableAt(now_s)) {
    // Selected while offline: the server pushed a task that is never picked
    // up; only the model download attempt is charged.
    outcome.reason = DropoutReason::kUnavailable;
    outcome.costs.train_time_s = 0.0;
    outcome.costs.comm_time_s *= 0.5;  // download leg only
    outcome.costs.peak_memory_mb = 0.0;
    outcome.time_spent_s = outcome.costs.comm_time_s;
    return outcome;
  }
  if (outcome.costs.out_of_memory) {
    // Training never starts; the model download is wasted.
    outcome.reason = DropoutReason::kOutOfMemory;
    outcome.costs.train_time_s = 0.0;
    outcome.costs.comm_time_s *= 0.5;
    outcome.time_spent_s = outcome.costs.comm_time_s;
    return outcome;
  }

  if (transport_.enabled()) {
    // Lossy-transport path (DESIGN.md §10): the cost model's point-sampled
    // comm time is replaced by explicit chunked download/upload legs
    // integrated over the client's bandwidth trace, with per-chunk loss,
    // link blackouts, retransmission backoff and (for uploads, optionally)
    // resumable retries. Train time and the memory check above still come
    // from the cost model.
    const CostEffect& effect = EffectOf(technique);
    TransferOptions download_opts;
    download_opts.payload_mb = model.weight_mb;
    download_opts.start_s = now_s;
    download_opts.budget_s = budget_s;
    download_opts.leg = TransferLeg::kDownload;
    download_opts.resumable = true;  // the server always re-serves only missing chunks
    download_opts.availability = avail.network;
    const TransferResult download =
        transport_.Transfer(transfer_key, client.id(), client.network(), download_opts);
    outcome.transfer_attempts = download.attempts;
    outcome.retransmitted_mb = download.retransmitted_mb;
    outcome.salvaged_mb = download.salvaged_mb;
    outcome.transfer_progress_mb = download.progress_mb;
    outcome.transfer_backoff_s = download.backoff_s;
    if (!download.delivered) {
      // Retries (or the round budget) exhausted before the model arrived:
      // training never starts.
      outcome.reason = DropoutReason::kTransferTimedOut;
      outcome.costs.train_time_s = 0.0;
      outcome.costs.comm_time_s = download.wire_time_s;
      outcome.costs.traffic_mb = download.wire_mb;
      outcome.costs.peak_memory_mb = 0.0;
      outcome.time_spent_s = download.elapsed_s;
      return outcome;
    }
    const double train_time = outcome.costs.train_time_s;
    const double upload_budget = budget_s - download.elapsed_s - train_time;
    if (upload_budget <= 0.0) {
      // Download + training alone overran the deadline: the upload never
      // starts and the round closes without this client.
      outcome.reason = DropoutReason::kMissedDeadline;
      outcome.deadline_diff = (download.elapsed_s + train_time - budget_s) / deadline_norm_s;
      mark_salvage(budget_s - download.elapsed_s, train_time);
      outcome.costs.train_time_s = std::max(0.0, budget_s - download.elapsed_s);
      outcome.costs.comm_time_s = download.wire_time_s;
      outcome.costs.traffic_mb = download.wire_mb;
      outcome.time_spent_s = budget_s;
      return outcome;
    }
    TransferOptions upload_opts;
    upload_opts.payload_mb = model.weight_mb * effect.comm_mult;
    upload_opts.start_s = now_s + download.elapsed_s + train_time;
    upload_opts.budget_s = upload_budget;
    upload_opts.leg = TransferLeg::kUpload;
    upload_opts.resumable = config_.faults.resumable_uploads;
    upload_opts.availability = avail.network;
    const TransferResult upload =
        transport_.Transfer(transfer_key, client.id(), client.network(), upload_opts);
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
      if (crash_time <= budget_s && client.availability().AvailableFor(now_s, crash_time)) {
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
      outcome.deadline_diff = std::max(0.0, (total_time - budget_s) / deadline_norm_s);
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
      outcome.deadline_diff = (total_time - available) / deadline_norm_s;
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
    // The process dies at crash_fraction of the round — but only if the
    // client would actually get that far (the deadline or an availability
    // departure would otherwise end the round first, benignly).
    const double crash_time = fault.crash_fraction * outcome.costs.total_time_s;
    if (crash_time <= budget_s && client.availability().AvailableFor(now_s, crash_time)) {
      // The download (half the comm budget) precedes training.
      mark_salvage(crash_time - 0.5 * outcome.costs.comm_time_s, outcome.costs.train_time_s);
      outcome.reason = DropoutReason::kCrashed;
      outcome.costs.train_time_s *= fault.crash_fraction;
      outcome.costs.comm_time_s *= fault.crash_fraction;
      outcome.time_spent_s = crash_time;
      return outcome;
    }
  }
  if (outcome.costs.total_time_s > budget_s) {
    // Straggler: works until the deadline, then the round closes without it.
    outcome.reason = DropoutReason::kMissedDeadline;
    outcome.deadline_diff = (outcome.costs.total_time_s - budget_s) / deadline_norm_s;
    const double frac = budget_s / outcome.costs.total_time_s;
    mark_salvage(frac * outcome.costs.train_time_s, outcome.costs.train_time_s);
    outcome.costs.train_time_s *= frac;
    outcome.costs.comm_time_s *= frac;
    outcome.time_spent_s = budget_s;
    return outcome;
  }
  if (!client.availability().AvailableFor(now_s, outcome.costs.total_time_s)) {
    // The device leaves (battery, user activity) mid-round.
    outcome.reason = DropoutReason::kDeparted;
    const double available = std::max(0.0, client.availability().PeriodEndAfter(now_s) - now_s);
    const double frac = std::min(1.0, available / std::max(1e-9, outcome.costs.total_time_s));
    mark_salvage(frac * outcome.costs.train_time_s, outcome.costs.train_time_s);
    outcome.costs.train_time_s *= frac;
    outcome.costs.comm_time_s *= frac;
    outcome.time_spent_s = available;
    outcome.deadline_diff = (outcome.costs.total_time_s - available) / deadline_norm_s;
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

double SurrogateEngine::UploadQuality(const ClientRoundOutcome& outcome,
                                      size_t attack_round) const {
  const double quality = 1.0 - EffectOf(outcome.technique).accuracy_impact;
  return outcome.byzantine ? injector_.AttackedQuality(quality, attack_round, outcome.client_id)
                           : quality;
}

std::vector<ClientContribution> SurrogateEngine::IngestBurst(
    uint64_t now_round, std::span<FreshUpload> fresh, std::span<const ReplaySource> replays,
    const GlobalObservation& global) {
  struct Delivery {
    AdmissionController::Arrival arrival;
    FreshUpload* upload = nullptr;  // null for a duplicate or replay
    const ClientObservation* observation = nullptr;
    TechniqueKind technique = TechniqueKind::kNone;
    double quality = 0.0;
    double upload_comm_s = 0.0;
    double upload_mb = 0.0;
  };
  auto copy_of = [](const FreshUpload& up) {
    Delivery d;
    d.arrival = up.arrival;
    d.observation = up.observation;
    d.technique = up.outcome->technique;
    d.quality = up.quality;
    d.upload_comm_s = 0.5 * up.outcome->costs.comm_time_s;  // upload leg
    d.upload_mb = 0.5 * up.outcome->costs.traffic_mb;
    return d;
  };
  std::vector<Delivery> deliveries;
  for (FreshUpload& up : fresh) {
    deliveries.push_back(copy_of(up));
    deliveries.back().upload = &up;
  }
  if (overload_.enabled()) {
    // At-least-once duplicates carry the exact key of the upload they copy,
    // which is what lets idempotent admission fold them.
    for (const FreshUpload& up : fresh) {
      const size_t copies = overload_.DuplicateCopies(now_round, up.arrival.client_id);
      for (size_t c = 0; c < copies; ++c) {
        deliveries.push_back(copy_of(up));
      }
    }
    // Replays re-deliver the client's last *accepted* upload — what a
    // retransmit buffer would still hold — at its original keys.
    for (const ReplaySource& source : replays) {
      const LoggedUpload* logged = update_log_.Get(source.client_id);
      if (logged == nullptr || logged->round >= now_round) {
        continue;
      }
      const size_t slots = overload_.ReplaySlots(now_round, source.client_id);
      for (size_t s = 0; s < slots; ++s) {
        Delivery d;
        d.arrival.client_id = source.client_id;
        d.arrival.round = logged->round;
        d.arrival.attempt = logged->attempt;
        d.arrival.staleness = static_cast<double>(now_round - logged->round);
        // A stale upload ranks below fresh ones under utility-priority
        // shedding, more so the older it is.
        d.arrival.utility = logged->quality / (1.0 + d.arrival.staleness);
        d.observation = source.observation;
        d.technique = static_cast<TechniqueKind>(logged->technique);
        d.quality = logged->quality;
        d.upload_comm_s = logged->upload_comm_s;
        d.upload_mb = logged->upload_mb;
        deliveries.push_back(d);
      }
    }
  }
  std::vector<AdmissionController::Arrival> arrivals;
  arrivals.reserve(deliveries.size());
  for (const Delivery& d : deliveries) {
    arrivals.push_back(d.arrival);
  }
  const std::vector<AdmissionController::Verdict> verdicts =
      admission_.Admit(now_round, arrivals, &admission_tracker_);

  std::vector<ClientContribution> redundant;
  for (size_t i = 0; i < deliveries.size(); ++i) {
    const Delivery& d = deliveries[i];
    const AdmissionController::Verdict& v = verdicts[i];
    if (d.upload != nullptr) {
      if (v.admitted) {
        d.upload->weight = v.weight;
      } else {
        // A legitimate upload turned away at ingress (shed / rate-limited):
        // the engine books it like any other dropout.
        d.upload->outcome->completed = false;
        d.upload->outcome->reason = v.reason;
      }
      continue;
    }
    if (v.admitted) {
      accountant_.Record(0.0, d.upload_comm_s, 0.0, false);
      redundant_mb_ += d.upload_mb;
      ClientContribution extra;
      extra.client_id = d.arrival.client_id;
      extra.quality = d.quality * v.weight;
      extra.staleness = d.arrival.staleness;
      redundant.push_back(extra);
    } else {
      // Refused at the doorstep before any processing: no waste charge and
      // no selector/guard/cooldown side effects, so folding a duplicate
      // leaves the model trajectory bit-identical to never receiving it.
      tracker_.Record(d.arrival.client_id, d.technique, false, v.reason);
      CountDropout(v.reason, dropout_breakdown_);
      if (policy_ != nullptr) {
        policy_->Report(d.arrival.client_id, *d.observation, global, d.technique, false, 0.0);
      }
    }
  }
  if (overload_.enabled()) {
    // Remember the accepted uploads, only now that every replay in this
    // burst has read its logged entry: the replay fault re-delivers exactly
    // this entry in a later burst.
    for (const FreshUpload& up : fresh) {
      if (!up.outcome->completed) {
        continue;
      }
      LoggedUpload entry;
      entry.round = up.arrival.round;
      entry.attempt = up.arrival.attempt;
      entry.quality = up.quality;
      entry.upload_comm_s = 0.5 * up.outcome->costs.comm_time_s;
      entry.upload_mb = 0.5 * up.outcome->costs.traffic_mb;
      entry.technique = static_cast<uint32_t>(up.outcome->technique);
      update_log_.Record(up.arrival.client_id, entry);
    }
  }
  return redundant;
}

void SurrogateEngine::SalvagePartials(uint64_t now_round,
                                      std::span<const PartialUpload> partials) {
  std::vector<ClientRoundOutcome*> candidates;
  std::vector<AdmissionController::Arrival> arrivals;
  for (const PartialUpload& p : partials) {
    const ClientRoundOutcome& o = *p.outcome;
    if (o.completed || o.salvage_fraction <= 0.0) {
      continue;
    }
    const bool interrupted = o.reason == DropoutReason::kCrashed ||
                             o.reason == DropoutReason::kMissedDeadline ||
                             o.reason == DropoutReason::kDeparted ||
                             o.reason == DropoutReason::kTransferTimedOut;
    if (!interrupted) {
      continue;
    }
    if (o.salvage_fraction < config_.salvage.min_progress) {
      salvage_tracker_.RecordPartialBelowMin();
      continue;
    }
    candidates.push_back(p.outcome);
    arrivals.push_back(p.arrival);
    arrivals.back().utility *= o.salvage_fraction;
  }
  if (candidates.empty()) {
    return;
  }
  const std::vector<AdmissionController::Verdict> verdicts =
      admission_.Admit(now_round, arrivals, &admission_tracker_);
  const double upload_payload_mb = GetModelProfile(config_.model).weight_mb;
  for (size_t j = 0; j < candidates.size(); ++j) {
    ClientRoundOutcome& o = *candidates[j];
    if (!verdicts[j].admitted) {
      salvage_tracker_.RecordPartialRejected();
      continue;
    }
    o.salvaged = true;
    // Acked upload bytes the salvage reuses; zero for training
    // interruptions, where nothing of the update reached the wire.
    const double acked_mb =
        o.reason == DropoutReason::kTransferTimedOut
            ? o.salvage_fraction * upload_payload_mb * EffectOf(o.technique).comm_mult
            : 0.0;
    salvage_tracker_.RecordPartialSalvaged(o.salvage_steps, o.salvage_fraction, acked_mb);
  }
}

void SurrogateEngine::BookOutcome(Client& client, const ClientRoundOutcome& outcome,
                                  size_t round) {
  if (outcome.completed) {
    ++client.times_completed;
  }
  client.last_round_duration_s = outcome.time_spent_s;
  client.UpdateDeadlineDiff(outcome.deadline_diff);
  // A salvaged partial converts the interrupted spend into useful work; the
  // execution still books as a dropout (completed stays false).
  accountant_.Record(outcome.costs.train_time_s, outcome.costs.comm_time_s,
                     outcome.costs.peak_memory_mb, outcome.completed || outcome.salvaged);
  tracker_.Record(outcome.client_id, outcome.technique, outcome.completed, outcome.reason);
  guard_.Observe(outcome.technique, outcome.completed, outcome.reason, round);
  if (outcome.transfer_attempts > 0) {
    transport_tracker_.Record(outcome.transfer_attempts, outcome.costs.traffic_mb,
                              outcome.retransmitted_mb, outcome.salvaged_mb,
                              outcome.transfer_progress_mb, outcome.transfer_backoff_s,
                              outcome.reason == DropoutReason::kTransferTimedOut);
  }
  CountDropout(outcome.reason, dropout_breakdown_);
  if (config_.faults.retry_cooldown_rounds > 0 &&
      (outcome.reason == DropoutReason::kCrashed ||
       outcome.reason == DropoutReason::kCorrupted)) {
    // Retry-with-cooldown: a crashed or quarantined client sits out the next
    // few rounds before the selectors (or FedBuff's launcher) consider it.
    client.cooldown_until_round = round + 1 + config_.faults.retry_cooldown_rounds;
  }
}

}  // namespace floatfl
