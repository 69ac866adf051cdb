#include "src/fl/surrogate_engine.h"

#include <algorithm>
#include <cmath>

#include "src/common/stats.h"

namespace floatfl {
namespace {

// `config` once ValidateExperimentConfig has passed it, so the constructor
// refuses a bad config before it builds anything from it.
const ExperimentConfig& Validated(const ExperimentConfig& config) {
  ValidateExperimentConfig(config);
  return config;
}

}  // namespace

SurrogateEngine::SurrogateEngine(const ExperimentConfig& config, TuningPolicy* policy,
                                 size_t participants)
    : ServerCore(Validated(config).seed, config.num_clients, config.num_threads, config.faults,
                 config.guard, config.topology, config.admission, policy),
      config_(config),
      clients_(BuildPopulation(GetDatasetSpec(config.dataset), config.num_clients, config.alpha,
                               config.interference, config.seed)),
      tracker_(config.num_clients) {
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
    uint64_t now_round, std::span<FreshUpload> fresh, std::span<const size_t> replay_clients,
    std::span<const ClientObservation> replay_observations, const GlobalObservation& global) {
  // The log form of a fresh upload is also what each copy of it carries.
  auto logged_form = [&fresh](size_t i) {
    const FreshUpload& up = fresh[i];
    LoggedUpload entry;
    entry.quality = up.quality;
    entry.upload_comm_s = 0.5 * up.outcome->costs.comm_time_s;  // upload leg
    entry.upload_mb = 0.5 * up.outcome->costs.traffic_mb;
    entry.technique = static_cast<uint32_t>(up.outcome->technique);
    return entry;
  };
  std::vector<AdmissionController::Arrival> arrivals;
  arrivals.reserve(fresh.size());
  for (const FreshUpload& up : fresh) {
    arrivals.push_back(up.arrival);
  }
  std::vector<ClientContribution> redundant;
  AdmitBurst(
      now_round, arrivals, replay_clients, &LoggedUpload::quality, &admission_tracker_,
      [&](const IngressDelivery& d, const AdmissionController::Verdict& v) {
        if (d.kind == IngressDelivery::Kind::kFresh) {
          FreshUpload& up = fresh[d.source];
          if (v.admitted) {
            up.weight = v.weight;
          } else {
            // A legitimate upload turned away at ingress (shed /
            // rate-limited): the engine books it like any other dropout.
            up.outcome->completed = false;
            up.outcome->reason = v.reason;
          }
          return;
        }
        const bool replay = d.kind == IngressDelivery::Kind::kReplay;
        const LoggedUpload sent = replay ? *d.logged : logged_form(d.source);
        if (v.admitted) {
          accountant_.Record(0.0, sent.upload_comm_s, 0.0, false);
          redundant_mb_ += sent.upload_mb;
          ClientContribution extra;
          extra.client_id = d.arrival.client_id;
          extra.quality = sent.quality * v.weight;
          extra.staleness = d.arrival.staleness;
          redundant.push_back(extra);
          return;
        }
        // Refused at the doorstep before any processing: no waste charge and
        // no selector/guard/cooldown side effects, so folding a duplicate
        // leaves the model trajectory bit-identical to never receiving it.
        const auto technique = static_cast<TechniqueKind>(sent.technique);
        tracker_.Record(d.arrival.client_id, technique, false, v.reason);
        CountDropout(v.reason, dropout_breakdown_);
        if (policy_ != nullptr) {
          const ClientObservation& observation =
              replay ? replay_observations[d.source] : *fresh[d.source].observation;
          policy_->Report(d.arrival.client_id, observation, global, technique, false, 0.0);
        }
      },
      logged_form);
  return redundant;
}

void SurrogateEngine::SalvagePartials(uint64_t now_round,
                                      std::span<const PartialUpload> partials) {
  std::vector<ClientRoundOutcome*> candidates;
  std::vector<PartialArrival> arrivals;
  const double upload_payload_mb = GetModelProfile(config_.model).weight_mb;
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
      ++salvage_tracker_.partials_below_min;
      continue;
    }
    candidates.push_back(p.outcome);
    PartialArrival partial;
    partial.arrival = p.arrival;
    partial.fraction = o.salvage_fraction;
    partial.steps = o.salvage_steps;
    // Acked upload bytes the salvage reuses; zero for training
    // interruptions, where nothing of the update reached the wire.
    partial.acked_mb =
        o.reason == DropoutReason::kTransferTimedOut
            ? o.salvage_fraction * upload_payload_mb * EffectOf(o.technique).comm_mult
            : 0.0;
    arrivals.push_back(partial);
  }
  const std::vector<AdmissionController::Verdict> verdicts =
      AdmitPartials(now_round, arrivals, &admission_tracker_);
  for (size_t j = 0; j < verdicts.size(); ++j) {
    candidates[j]->salvaged = verdicts[j].admitted;
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

ExperimentResult SurrogateEngine::Snapshot() const {
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
  const AggregationRoundRecord agg_totals = agg_tracker_.Totals();
  result.byzantine_selected = agg_totals.byzantine_selected;
  result.krum_rejections = agg_totals.krum_rejections;
  result.updates_trimmed = agg_totals.updates_trimmed;
  result.transfer_attempts = transport_tracker_.attempts;
  result.wire_mb = transport_tracker_.wire_mb;
  result.retransmitted_mb = transport_tracker_.retransmitted_mb;
  result.salvaged_mb = transport_tracker_.salvaged_mb;
  result.transfer_backoff_s = transport_tracker_.backoff_s;
  result.useful = accountant_.Useful();
  result.wasted = accountant_.Wasted();
  result.wall_clock_hours = now_s_ / 3600.0;
  result.per_technique = tracker_.PerTechnique();
  result.per_technique_dropouts = tracker_.DropoutsByTechnique();
  result.guard_snapshots = guard_.tracker().snapshots;
  result.watchdog_triggers = guard_.tracker().WatchdogTriggers();
  result.rollbacks = guard_.tracker().rollbacks;
  result.quarantined_actions = guard_.tracker().masked_actions;
  result.quarantine_openings = guard_.tracker().quarantine_openings;
  result.rejected_rewards = guard_.tracker().rejected_rewards;
  result.safe_mode_rounds = guard_.tracker().safe_mode_rounds;
  result.edge_crashes = topo_tracker_.edge_crashes;
  result.edge_blackouts = topo_tracker_.edge_blackouts;
  result.reparented_clients = topo_tracker_.reparented_clients;
  result.orphaned_clients = topo_tracker_.orphaned_clients;
  result.partials_forwarded = topo_tracker_.partials_forwarded;
  result.partials_lost = topo_tracker_.partials_lost;
  result.tampered_partials = topo_tracker_.tampered_partials;
  result.tampered_rejections = topo_tracker_.tampered_rejections;
  result.late_partials = topo_tracker_.late_partials;
  result.tier1_wire_mb = topo_tracker_.tier1_wire_mb;
  result.tier1_retransmitted_mb = topo_tracker_.tier1_retransmitted_mb;
  result.recovery_restarts = recovery_tracker_.restarts;
  result.recovery_archives_skipped = recovery_tracker_.archives_skipped;
  result.recovery_rounds_replayed = recovery_tracker_.rounds_replayed;
  result.recovery_checkpoints_written = recovery_tracker_.checkpoints_written;
  result.recovery_checkpoints_failed = recovery_tracker_.checkpoints_failed;
  result.admission_admitted = admission_tracker_.admitted;
  result.admission_deduplicated = admission_tracker_.deduplicated;
  result.admission_shed = admission_tracker_.shed;
  result.admission_rate_limited = admission_tracker_.rate_limited;
  result.admission_replay_rejected = admission_tracker_.replay_rejected;
  result.admission_peak_queue_depth = admission_tracker_.peak_queue_depth;
  result.redundant_mb = redundant_mb_;
  result.partials_salvaged = salvage_tracker_.partials_salvaged;
  result.partials_below_min = salvage_tracker_.partials_below_min;
  result.partials_rejected = salvage_tracker_.partials_rejected;
  result.salvaged_steps = salvage_tracker_.salvaged_steps;
  result.salvaged_progress_mb = salvage_tracker_.salvaged_progress_mb;
  result.backups_planned = salvage_tracker_.backups_planned;
  result.backups_won = salvage_tracker_.backups_won;
  result.backups_redundant = salvage_tracker_.backups_redundant;
  result.deadline_misses_averted = salvage_tracker_.deadline_misses_averted;
  result.transfer_progress_mb = transport_tracker_.progress_mb;
  result.accuracy_history = accuracy_history_;
  result.per_client_selected = tracker_.selected();
  result.per_client_completed = tracker_.completed();
  return result;
}

}  // namespace floatfl
