#include "src/fl/sync_engine.h"

#include <algorithm>
#include <cmath>

#include "src/agg/quality_agg.h"
#include "src/common/check.h"
#include "src/common/stats.h"

namespace floatfl {
namespace {

// Server-side aggregation and bookkeeping gap between rounds, seconds.
constexpr double kRoundOverheadS = 10.0;

// backup_of marker for ordinary (non-backup) cohort slots.
constexpr size_t kPrimarySlot = static_cast<size_t>(-1);

}  // namespace

SyncEngine::SyncEngine(const ExperimentConfig& config, Selector* selector, TuningPolicy* policy)
    : config_(config),
      selector_(selector),
      policy_(policy),
      clients_(BuildPopulation(GetDatasetSpec(config.dataset), config.num_clients, config.alpha,
                               config.interference, config.seed)),
      tracker_(config.num_clients) {
  const size_t threads = ResolveThreadCount(config.num_threads);
  if (threads > 1) {
    // The calling thread participates in every ParallelFor, so `threads`
    // total threads do client work.
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  FLOATFL_CHECK(selector_ != nullptr);
  ValidateExperimentConfig(config_);
  injector_ = FaultInjector(config_.faults, config_.seed, config_.num_clients);
  guard_ = TrainingGuard(config_.guard);
  if (config_.deadline_s <= 0.0) {
    config_.deadline_s = AutoDeadlineSeconds(config_, clients_);
  }
  transport_ = Transport(config_.faults, config_.seed);
  deadline_ctrl_ = AdaptiveDeadlineController(config_.adaptive_deadline, config_.num_clients,
                                              config_.deadline_s);
  edge_injector_ = EdgeFaultInjector(config_.topology, config_.seed, config_.topology.num_edges);
  tree_ = AggregationTree(config_.topology, config_.num_clients);
  edge_transport_ = Transport(config_.topology.LinkFaultConfig(),
                              config_.seed ^ TopologyConfig::kEdgeLinkSeedSalt);
  edge_deadline_ctrl_ = AdaptiveDeadlineController(config_.topology.edge_adaptive_deadline,
                                                   config_.topology.num_edges, config_.deadline_s);
  overload_ = OverloadInjector(config_.faults, config_.seed);
  admission_ = AdmissionController(config_.admission);
  scheduler_ = SpeculativeScheduler(config_.salvage);
  update_log_ = UpdateLog(config_.num_clients);
  round_deadline_s_ = config_.deadline_s;
  reference_ = ComputePopulationReference(clients_);
  std::vector<ClientShard> shards;
  shards.reserve(clients_.size());
  for (const auto& c : clients_) {
    shards.push_back(c.shard());
  }
  surrogate_ = std::make_unique<SurrogateAccuracyModel>(
      SurrogateConfigFor(GetDatasetSpec(config.dataset),
                         static_cast<double>(config.clients_per_round)),
      shards);
}

ClientRoundOutcome SyncEngine::SimulateClient(Client& client, size_t round, double now_s,
                                              TechniqueKind technique,
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

  const double deadline = round_deadline_s_;
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
      outcome.time_spent_s = std::min(crash_time, deadline);
      return outcome;
    }
    outcome.completed = true;
    outcome.time_spent_s = std::min(outcome.costs.total_time_s, deadline);
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
    download_opts.budget_s = deadline;
    download_opts.leg = TransferLeg::kDownload;
    download_opts.resumable = true;  // the server always re-serves only missing chunks
    download_opts.availability = avail.network;
    const TransferResult download =
        transport_.Transfer(round, client.id(), client.network(), download_opts);
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
    const double upload_budget = deadline - download.elapsed_s - train_time;
    if (upload_budget <= 0.0) {
      // Download + training alone overran the deadline: the upload never
      // starts and the round closes without this client.
      outcome.reason = DropoutReason::kMissedDeadline;
      outcome.deadline_diff = (download.elapsed_s + train_time - deadline) / deadline;
      mark_salvage(deadline - download.elapsed_s, train_time);
      outcome.costs.train_time_s = std::max(0.0, deadline - download.elapsed_s);
      outcome.costs.comm_time_s = download.wire_time_s;
      outcome.costs.traffic_mb = download.wire_mb;
      outcome.time_spent_s = deadline;
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
        transport_.Transfer(round, client.id(), client.network(), upload_opts);
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
      if (crash_time <= deadline && client.availability().AvailableFor(now_s, crash_time)) {
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
      outcome.deadline_diff = std::max(0.0, (total_time - deadline) / deadline);
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
      outcome.deadline_diff = (total_time - available) / deadline;
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
    if (crash_time <= deadline && client.availability().AvailableFor(now_s, crash_time)) {
      // The download (half the comm budget) precedes training.
      mark_salvage(crash_time - 0.5 * outcome.costs.comm_time_s, outcome.costs.train_time_s);
      outcome.reason = DropoutReason::kCrashed;
      outcome.costs.train_time_s *= fault.crash_fraction;
      outcome.costs.comm_time_s *= fault.crash_fraction;
      outcome.time_spent_s = crash_time;
      return outcome;
    }
  }
  if (outcome.costs.total_time_s > deadline) {
    // Straggler: works until the deadline, then the round closes without it.
    outcome.reason = DropoutReason::kMissedDeadline;
    outcome.deadline_diff = (outcome.costs.total_time_s - deadline) / deadline;
    const double frac = deadline / outcome.costs.total_time_s;
    mark_salvage(frac * outcome.costs.train_time_s, outcome.costs.train_time_s);
    outcome.costs.train_time_s *= frac;
    outcome.costs.comm_time_s *= frac;
    outcome.time_spent_s = deadline;
    return outcome;
  }
  if (!client.availability().AvailableFor(now_s, outcome.costs.total_time_s)) {
    // The device leaves (battery, user activity) mid-round.
    outcome.reason = DropoutReason::kDeparted;
    const double available = std::max(0.0, client.availability().PeriodEndAfter(now_s) - now_s);
    const double frac = std::min(1.0, available / outcome.costs.total_time_s);
    mark_salvage(frac * outcome.costs.train_time_s, outcome.costs.train_time_s);
    outcome.costs.train_time_s *= frac;
    outcome.costs.comm_time_s *= frac;
    outcome.time_spent_s = available;
    outcome.deadline_diff = (outcome.costs.total_time_s - available) / deadline;
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

void SyncEngine::RunRound(size_t round) {
  injector_.BeginRound(round);
  guard_.BeginRound(round);
  // Hierarchical topology (DESIGN.md §13): draw this round's edge fault
  // decisions and fold them (plus crash cooldowns) into the up/down mask and
  // failover assignment before any client is tasked.
  const bool tree_on = tree_.enabled();
  std::vector<EdgeFaultDecision> edge_decisions;
  if (tree_on) {
    edge_injector_.BeginRound(round);
    edge_decisions.assign(tree_.num_edges(), EdgeFaultDecision());
    for (size_t edge = 0; edge < edge_decisions.size(); ++edge) {
      edge_decisions[edge] = edge_injector_.Decide(round, edge);
      if (edge_decisions[edge].crash) {
        topo_tracker_.RecordEdgeCrash();
      } else if (edge_decisions[edge].blackout) {
        topo_tracker_.RecordEdgeBlackout();
      }
    }
    tree_.BeginRound(round, edge_decisions);
  }
  if (deadline_ctrl_.enabled()) {
    // Re-plan the sync deadline from the population's observed round times
    // (clamped to the configured bounds around the base deadline).
    round_deadline_s_ = deadline_ctrl_.CurrentDeadline();
  }

  // Over-selection: select ceil(K x overcommit) and close the round at the
  // first K completions; the extras hedge against injected failures.
  const size_t base_k = config_.clients_per_round;
  size_t select_k = base_k;
  if (injector_.enabled() && config_.faults.overcommit > 1.0) {
    select_k = static_cast<size_t>(
        std::ceil(static_cast<double>(base_k) * config_.faults.overcommit));
    select_k = std::min(select_k, config_.num_clients);
  }
  std::vector<size_t> selected = selector_->Select(round, now_s_, select_k, clients_);

  // Speculative re-execution (DESIGN.md §16): deterministically draft one
  // backup executor for every primary whose EWMA deadline profile predicts a
  // miss, and run the backups through the same observe/decide/simulate path
  // as the cohort (their own fault draws included). Resolution — first valid
  // upload wins, the loser charged as redundant — happens after server-side
  // validation below. `needed` stays pinned to the primary cohort so
  // speculation can never relax the round-close bar.
  const size_t num_primaries = selected.size();
  // Slot i's primary slot when slot i is a backup; kPrimarySlot otherwise.
  std::vector<size_t> backup_of(num_primaries, kPrimarySlot);
  if (config_.salvage.speculation) {
    const std::vector<BackupPlan> plans = scheduler_.Plan(round, selected, clients_);
    salvage_tracker_.RecordBackupsPlanned(plans.size());
    for (const BackupPlan& plan : plans) {
      backup_of.push_back(plan.primary_slot);
      selected.push_back(plan.backup_client_id);
    }
  }

  GlobalObservation global;
  global.batch_size = config_.batch_size;
  global.epochs = config_.epochs;
  global.participants = config_.clients_per_round;

  // Phase 1a (parallel): observe each client. An observation reads only its
  // own client and catches its interference trace up to now_s_, the one
  // time every phase of the round queries. Ids in `selected` are distinct
  // (selectors sample without replacement; the scheduler drafts backups
  // only from clients not yet busy this round), so no two tasks share a
  // trace, and each observation lands in its own slot.
  std::vector<ClientObservation> observations(selected.size());
  ParallelFor(pool_.get(), selected.size(), [&](size_t i) {
    FLOATFL_CHECK(selected[i] < clients_.size());
    observations[i] = ObserveClient(clients_[selected[i]], now_s_, reference_);
  });

  // Phase 1b (sequential): let the policy decide in selection order,
  // preserving its internal draw order across thread counts. Fault decisions
  // are drawn here too — each from its own (round, client)-keyed stream, so
  // their order is irrelevant, but batching them keeps phase 2 free of
  // injector calls.
  std::vector<TechniqueKind> techniques;
  std::vector<FaultDecision> faults(selected.size());
  techniques.reserve(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    const size_t id = selected[i];
    // The policy always gets its Decide call (preserving its internal draw
    // order); the guard may then veto the chosen action (safe mode or
    // quarantine) and substitute kNone.
    techniques.push_back(
        guard_.Filter(policy_ != nullptr ? policy_->Decide(id, observations[i], global)
                                         : TechniqueKind::kNone,
                      round));
    if (injector_.enabled()) {
      faults[i] = injector_.Decide(round, id, now_s_);
    }
  }

  // Phase 2 (parallel): simulate the selected clients. Each task touches
  // only its own client's trace state (selectors sample without
  // replacement), and outcomes land in an index-ordered buffer.
  std::vector<ClientRoundOutcome> outcomes(selected.size());
  ParallelFor(pool_.get(), selected.size(), [&](size_t i) {
    if (tree_on && tree_.EffectiveEdge(selected[i]) == AggregationTree::kOrphaned) {
      // Every edge in the client's failover chain is down: the task push has
      // nowhere to land, the client never runs, and nothing is charged.
      ClientRoundOutcome orphan;
      orphan.client_id = selected[i];
      orphan.technique = techniques[i];
      orphan.reason = DropoutReason::kEdgeOrphaned;
      outcomes[i] = orphan;
      return;
    }
    outcomes[i] = SimulateClient(clients_[selected[i]], round, now_s_, techniques[i], faults[i]);
  });

  // Server-side validation (quarantine): a corrupted update carries a
  // non-finite or absurd quality and is rejected before aggregation. The
  // client spent its full round; the spend becomes waste.
  for (auto& outcome : outcomes) {
    if (outcome.completed && outcome.corrupted &&
        !IsValidUpdateQuality(PoisonedQuality(outcome.corrupt_kind))) {
      outcome.completed = false;
      outcome.reason = DropoutReason::kCorrupted;
      ++rejected_updates_;
    }
  }

  // Backup resolution (DESIGN.md §16): for each (primary, backup) pair the
  // first valid upload wins and the other execution is charged as redundant
  // work. A corrupted party keeps kCorrupted (rejected_updates_ already
  // counted it), and a backup's own deadline miss is re-labeled so
  // speculation can never inflate the miss statistics it exists to reduce.
  for (size_t i = num_primaries; i < outcomes.size(); ++i) {
    ClientRoundOutcome& backup = outcomes[i];
    ClientRoundOutcome& primary = outcomes[backup_of[i]];
    if (backup.completed && primary.completed) {
      ClientRoundOutcome& loser =
          backup.time_spent_s < primary.time_spent_s ? primary : backup;
      loser.completed = false;
      loser.reason = DropoutReason::kBackupRedundant;
      if (&loser == &primary) {
        salvage_tracker_.RecordBackupWin();
      } else {
        salvage_tracker_.RecordBackupRedundant();
      }
    } else if (backup.completed) {
      // The primary was interrupted and the backup delivered: the cohort
      // slot is covered.
      if (primary.reason == DropoutReason::kMissedDeadline) {
        salvage_tracker_.RecordDeadlineMissAverted();
      }
      if (primary.reason != DropoutReason::kCorrupted) {
        primary.reason = DropoutReason::kBackupCovered;
      }
      salvage_tracker_.RecordBackupWin();
    } else {
      if (backup.reason == DropoutReason::kMissedDeadline) {
        backup.reason = DropoutReason::kBackupRedundant;
      }
      salvage_tracker_.RecordBackupRedundant();
    }
  }

  // Over-selection round close: accept the first `needed` valid completions
  // (by finish time, selection order breaking ties); later ones are
  // abandoned and their spend charged as waste.
  const size_t needed = std::min(base_k, num_primaries);
  {
    std::vector<size_t> completed_idx;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].completed) {
        completed_idx.push_back(i);
      }
    }
    if (completed_idx.size() > needed) {
      std::stable_sort(completed_idx.begin(), completed_idx.end(), [&](size_t a, size_t b) {
        return outcomes[a].time_spent_s < outcomes[b].time_spent_s;
      });
      for (size_t j = needed; j < completed_idx.size(); ++j) {
        ClientRoundOutcome& abandoned = outcomes[completed_idx[j]];
        abandoned.completed = false;
        abandoned.reason = DropoutReason::kRejected;
      }
    }
  }

  // Server ingestion (DESIGN.md §15): every surviving upload is one arrival
  // at the server's ingress; the overload injector may permute the arrival
  // order, re-deliver uploads at-least-once, and replay stale past uploads —
  // with stampede episodes multiplying the redundant slots. The admission
  // gate (when enabled) rules on the whole burst in arrival order. A
  // redundant delivery that passes the gate — or meets an unguarded server —
  // is re-processed in full: its upload wire cost is charged as waste and
  // its (possibly stale) content re-enters aggregation below.
  struct RedundantDelivery {
    size_t client_id = 0;
    double quality = 0.0;
    double staleness = 0.0;
    double weight = 1.0;
  };
  std::vector<RedundantDelivery> redundant_admitted;
  if (overload_.enabled() || admission_.enabled()) {
    struct IngressDelivery {
      AdmissionController::Arrival arrival;
      size_t idx = 0;          // index into outcomes/observations
      bool redundant = false;  // a duplicate or replay, not the upload itself
      TechniqueKind technique = TechniqueKind::kNone;
      double quality = 0.0;
      double upload_comm_s = 0.0;
      double upload_mb = 0.0;
    };
    // The quality the server would aggregate for this upload; recomputable
    // because the Byzantine draw is (round, client)-keyed and const.
    auto quality_of = [&](const ClientRoundOutcome& o) {
      double q = 1.0 - EffectOf(o.technique).accuracy_impact;
      if (o.byzantine) {
        q = injector_.AttackedQuality(q, round, o.client_id);
      }
      return q;
    };
    std::vector<size_t> arrival_order;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].completed) {
        arrival_order.push_back(i);
      }
    }
    overload_.MaybeReorder(round, arrival_order);
    std::vector<IngressDelivery> deliveries;
    auto fresh_delivery = [&](size_t i) {
      IngressDelivery d;
      d.arrival.client_id = outcomes[i].client_id;
      d.arrival.round = round;
      d.arrival.attempt = 0;
      d.arrival.staleness = 0.0;
      d.idx = i;
      d.technique = outcomes[i].technique;
      d.quality = quality_of(outcomes[i]);
      d.upload_comm_s = 0.5 * outcomes[i].costs.comm_time_s;  // upload leg
      d.upload_mb = 0.5 * outcomes[i].costs.traffic_mb;
      const double u = selector_->IngestUtility(d.arrival.client_id);
      d.arrival.utility = u > 0.0 ? u : d.quality;
      return d;
    };
    for (size_t i : arrival_order) {
      deliveries.push_back(fresh_delivery(i));
    }
    if (overload_.enabled()) {
      // At-least-once duplicates carry the exact key of the upload they
      // copy, which is what lets idempotent admission fold them.
      for (size_t i : arrival_order) {
        const size_t copies = overload_.DuplicateCopies(round, outcomes[i].client_id);
        for (size_t c = 0; c < copies; ++c) {
          IngressDelivery d = fresh_delivery(i);
          d.redundant = true;
          deliveries.push_back(d);
        }
      }
      // Replays re-deliver the client's last *accepted* upload — what a
      // retransmit buffer would still hold — at its original round key.
      for (size_t i = 0; i < selected.size(); ++i) {
        const LoggedUpload* logged = update_log_.Get(selected[i]);
        if (logged == nullptr || logged->round >= round) {
          continue;
        }
        const size_t slots = overload_.ReplaySlots(round, selected[i]);
        for (size_t s = 0; s < slots; ++s) {
          IngressDelivery d;
          d.arrival.client_id = selected[i];
          d.arrival.round = logged->round;
          d.arrival.attempt = 0;
          d.arrival.staleness = static_cast<double>(round - logged->round);
          // A stale upload ranks below fresh ones under utility-priority
          // shedding, more so the older it is.
          d.arrival.utility = logged->quality / (1.0 + d.arrival.staleness);
          d.idx = i;
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
      verdicts = admission_.Admit(round, arrivals, &admission_tracker_);
    } else {
      AdmissionController::Verdict pass;
      pass.admitted = true;
      verdicts.assign(deliveries.size(), pass);
    }
    for (size_t i = 0; i < deliveries.size(); ++i) {
      const IngressDelivery& d = deliveries[i];
      const AdmissionController::Verdict& v = verdicts[i];
      if (!d.redundant) {
        if (!v.admitted) {
          // A legitimate upload turned away at ingress (shed / rate-limited):
          // the round closes without it and phase 3 below books it like any
          // other dropout.
          outcomes[d.idx].completed = false;
          outcomes[d.idx].reason = v.reason;
        }
        continue;
      }
      if (v.admitted) {
        accountant_.Record(0.0, d.upload_comm_s, 0.0, false);
        redundant_mb_ += d.upload_mb;
        RedundantDelivery red;
        red.client_id = d.arrival.client_id;
        red.quality = d.quality;
        red.staleness = d.arrival.staleness;
        red.weight = v.weight;
        redundant_admitted.push_back(red);
      } else {
        // Rejected at the doorstep before any processing: one tracker record
        // and one participated=false policy report — no waste charge and no
        // selector/guard/cooldown side effects, so folding a duplicate
        // leaves the model trajectory bit-identical to never receiving it.
        tracker_.Record(d.arrival.client_id, d.technique, false, v.reason);
        CountDropout(v.reason, dropout_breakdown_);
        if (policy_ != nullptr) {
          policy_->Report(d.arrival.client_id, observations[d.idx], global, d.technique, false,
                          0.0);
        }
      }
    }
  }

  // Partial-work salvage (DESIGN.md §16): an interruption that left
  // measurable progress (crash, deadline miss, departure, timed-out upload)
  // no longer forfeits the client's work. Partials clearing the
  // min-progress bar form a second admission burst — keyed with a dedicated
  // attempt id so a partial can never fold into (or be folded by) the
  // client's full upload — and the admitted ones re-enter aggregation below
  // at step-count weight. Salvage converts already-spent compute: it never
  // extends the round, re-charges communication, or counts toward the
  // cohort close.
  if (config_.salvage.enabled) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const ClientRoundOutcome& o = outcomes[i];
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
      candidates.push_back(i);
    }
    std::vector<AdmissionController::Verdict> verdicts;
    if (admission_.enabled() && !candidates.empty()) {
      std::vector<AdmissionController::Arrival> arrivals;
      arrivals.reserve(candidates.size());
      for (size_t i : candidates) {
        AdmissionController::Arrival a;
        a.client_id = outcomes[i].client_id;
        a.round = round;
        a.attempt = kPartialUpdateAttempt;
        const double u = selector_->IngestUtility(a.client_id);
        a.utility = (u > 0.0 ? u : 1.0) * outcomes[i].salvage_fraction;
        arrivals.push_back(a);
      }
      verdicts = admission_.Admit(round, arrivals, &admission_tracker_);
    } else {
      AdmissionController::Verdict pass;
      pass.admitted = true;
      verdicts.assign(candidates.size(), pass);
    }
    const double upload_payload_mb = GetModelProfile(config_.model).weight_mb;
    for (size_t j = 0; j < candidates.size(); ++j) {
      ClientRoundOutcome& o = outcomes[candidates[j]];
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

  // Phase 3 (sequential, selection order): bookkeeping, so the accountant's
  // floating-point sums accumulate in a fixed order.
  for (size_t i = 0; i < selected.size(); ++i) {
    Client& client = clients_[selected[i]];
    const ClientRoundOutcome& outcome = outcomes[i];
    ++client.times_selected;
    if (outcome.completed) {
      ++client.times_completed;
    }
    client.last_round_duration_s = outcome.time_spent_s;
    client.UpdateDeadlineDiff(outcome.deadline_diff);

    // A salvaged partial converts the interrupted spend into useful work;
    // the round still records it as a dropout (completed stays false).
    accountant_.Record(outcome.costs.train_time_s, outcome.costs.comm_time_s,
                       outcome.costs.peak_memory_mb, outcome.completed || outcome.salvaged);
    tracker_.Record(selected[i], techniques[i], outcome.completed, outcome.reason);
    guard_.Observe(techniques[i], outcome.completed, outcome.reason, round);
    if (outcome.transfer_attempts > 0) {
      transport_tracker_.Record(outcome.transfer_attempts, outcome.costs.traffic_mb,
                                outcome.retransmitted_mb, outcome.salvaged_mb,
                                outcome.transfer_progress_mb, outcome.transfer_backoff_s,
                                outcome.reason == DropoutReason::kTransferTimedOut);
    }
    CountDropout(outcome.reason, dropout_breakdown_);
    if (tree_on) {
      if (outcome.reason == DropoutReason::kEdgeOrphaned) {
        topo_tracker_.RecordOrphaned(1);
      } else if (tree_.Reparented(selected[i])) {
        topo_tracker_.RecordReparented(1);
      }
    }
    if (config_.faults.retry_cooldown_rounds > 0 &&
        (outcome.reason == DropoutReason::kCrashed ||
         outcome.reason == DropoutReason::kCorrupted)) {
      // Retry-with-cooldown: a crashed or quarantined client sits out the
      // next few rounds before the selectors consider it again.
      client.cooldown_until_round = round + 1 + config_.faults.retry_cooldown_rounds;
    }
  }

  // Aggregate the successful updates into the convergence model. A Byzantine
  // completer submits an adversarially crafted (but validation-passing)
  // quality; the configured aggregation rule then gets its say before the
  // surrogate folds the contributions in.
  const double accuracy_before = surrogate_->GlobalAccuracy();
  std::vector<ClientContribution> contributions;
  double round_duration = 0.0;
  size_t accepted = 0;
  size_t byzantine_selected = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.byzantine) {
      ++byzantine_selected;
    }
    if (outcome.completed) {
      ClientContribution contribution;
      contribution.client_id = outcome.client_id;
      contribution.quality = 1.0 - EffectOf(outcome.technique).accuracy_impact;
      if (outcome.byzantine) {
        contribution.quality =
            injector_.AttackedQuality(contribution.quality, round, outcome.client_id);
      }
      contributions.push_back(contribution);
      if (overload_.enabled()) {
        // Remember the accepted upload: the replay fault re-delivers exactly
        // this entry in a later round.
        LoggedUpload entry;
        entry.round = round;
        entry.quality = contribution.quality;
        entry.upload_comm_s = 0.5 * outcome.costs.comm_time_s;  // upload leg
        entry.upload_mb = 0.5 * outcome.costs.traffic_mb;
        entry.technique = static_cast<uint32_t>(outcome.technique);
        update_log_.Record(outcome.client_id, entry);
      }
      round_duration = std::max(round_duration, outcome.time_spent_s);
      ++accepted;
    }
  }
  // Admitted partials re-enter aggregation at step-count weight: the quality
  // is the same as a full update from this client (the completed steps are
  // real steps at full quality), while the weight scales its mass in the
  // round mean by the completed fraction — a 40%-trained partial can never
  // outvote a full update, and the round's mean quality is not diluted.
  if (config_.salvage.enabled) {
    for (const auto& outcome : outcomes) {
      if (!outcome.salvaged) {
        continue;
      }
      ClientContribution contribution;
      contribution.client_id = outcome.client_id;
      contribution.quality = 1.0 - EffectOf(outcome.technique).accuracy_impact;
      if (outcome.byzantine) {
        contribution.quality =
            injector_.AttackedQuality(contribution.quality, round, outcome.client_id);
      }
      contribution.weight = outcome.salvage_fraction;
      contributions.push_back(contribution);
    }
  }
  // Admitted redundant deliveries re-enter aggregation as extra
  // contributions: a duplicate double-weights its client, a replay injects a
  // stale (staleness-discounted) copy — both dilute round quality, which is
  // exactly the damage the admission gate exists to stop. They are re-counts
  // of already-closed uploads, so they never extend the round or count
  // toward the cohort.
  for (const RedundantDelivery& red : redundant_admitted) {
    ClientContribution contribution;
    contribution.client_id = red.client_id;
    contribution.quality = red.quality * red.weight;
    contribution.staleness = red.staleness;
    contributions.push_back(contribution);
  }

  // Edge tier (DESIGN.md §13): group the accepted contributions under their
  // effective (post-failover) edges, fold each group with the edge
  // aggregation rule, let Byzantine edges tamper with the partial they
  // forward, carry each partial over the (possibly lossy) inter-tier link,
  // apply the root's patience (adaptive deadline over per-edge round times,
  // edge over-selection), and re-validate what arrives. Whatever survives —
  // concatenated in edge order — is what the root aggregates.
  if (tree_on && !contributions.empty()) {
    const size_t num_edges = tree_.num_edges();
    std::vector<std::vector<ClientContribution>> groups(num_edges);
    std::vector<double> edge_elapsed(num_edges, 0.0);
    for (const auto& contribution : contributions) {
      groups[tree_.EffectiveEdge(contribution.client_id)].push_back(contribution);
    }
    for (const auto& outcome : outcomes) {
      if (outcome.completed) {
        const size_t edge = tree_.EffectiveEdge(outcome.client_id);
        edge_elapsed[edge] = std::max(edge_elapsed[edge], outcome.time_spent_s);
      }
    }
    const double partial_mb = GetModelProfile(config_.model).weight_mb;
    std::vector<uint8_t> delivered(num_edges, 0);
    for (size_t edge = 0; edge < num_edges; ++edge) {
      if (groups[edge].empty()) {
        continue;
      }
      AggregatorStats edge_stats;
      ApplyQualityAggregation(config_.topology.edge_aggregator, groups[edge], &edge_stats);
      topo_tracker_.RecordEdgeAggExclusions(edge_stats.updates_clipped +
                                            edge_stats.krum_rejections +
                                            edge_stats.updates_trimmed);
      if (edge_injector_.enabled() && edge_decisions[edge].byzantine) {
        for (auto& c : groups[edge]) {
          c.quality = edge_injector_.TamperedQuality(c.quality, round, edge);
        }
        topo_tracker_.RecordTampered();
      }
      bool ok = true;
      if (edge_transport_.enabled()) {
        // Losing the partial loses every client update behind it: the
        // blast-radius asymmetry that makes edge links worth hardening.
        const TransferResult res =
            edge_transport_.TryDeliver(round, edge, partial_mb, TransferLeg::kUpload, true);
        topo_tracker_.RecordPartial(res.delivered, res.attempts, res.wire_mb,
                                    res.retransmitted_mb);
        ok = res.delivered;
      } else {
        topo_tracker_.RecordPartial(true, 0, 0.0, 0.0);
      }
      delivered[edge] = ok ? 1 : 0;
    }
    std::vector<size_t> arrived;
    for (size_t edge = 0; edge < num_edges; ++edge) {
      if (!groups[edge].empty() && delivered[edge]) {
        arrived.push_back(edge);
      }
    }
    if (edge_deadline_ctrl_.enabled()) {
      const double root_patience = edge_deadline_ctrl_.CurrentDeadline();
      std::vector<size_t> in_time;
      for (size_t edge : arrived) {
        if (edge_elapsed[edge] <= root_patience) {
          in_time.push_back(edge);
        } else {
          topo_tracker_.RecordLatePartial();
        }
      }
      arrived.swap(in_time);
    }
    if (config_.topology.edge_overcommit > 1.0) {
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(static_cast<double>(num_edges) /
                                           config_.topology.edge_overcommit)));
      if (arrived.size() > keep) {
        std::stable_sort(arrived.begin(), arrived.end(),
                         [&](size_t a, size_t b) { return edge_elapsed[a] < edge_elapsed[b]; });
        for (size_t j = keep; j < arrived.size(); ++j) {
          topo_tracker_.RecordLatePartial();
        }
        arrived.resize(keep);
        std::sort(arrived.begin(), arrived.end());
      }
    }
    if (edge_deadline_ctrl_.enabled()) {
      // Every delivered partial (late or not) feeds the estimate, in edge
      // order, so the controller sees the tree's true pace.
      for (size_t edge = 0; edge < num_edges; ++edge) {
        if (!groups[edge].empty() && delivered[edge]) {
          edge_deadline_ctrl_.Observe(edge, edge_elapsed[edge], 0.0);
        }
      }
    }
    contributions.clear();
    for (size_t edge : arrived) {
      size_t rejected = 0;
      for (const auto& c : groups[edge]) {
        if (IsValidUpdateQuality(c.quality)) {
          contributions.push_back(c);
        } else {
          ++rejected;
        }
      }
      if (rejected > 0) {
        topo_tracker_.RecordTamperedRejections(rejected);
      }
    }
  }
  // Fraction of completed client updates that made it through the tree to
  // the root — the guard's per-tier health signal. 1 on the star topology.
  const size_t reached_root = contributions.size();
  AggregatorStats agg_stats;
  ApplyQualityAggregation(config_.aggregator, contributions, &agg_stats);
  agg_tracker_.Record(byzantine_selected, agg_stats);
  surrogate_->RoundUpdate(contributions);
  const double accuracy_delta = surrogate_->GlobalAccuracy() - accuracy_before;

  // Feedback to the tuning policy and the selector.
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& outcome = outcomes[i];
    if (policy_ != nullptr) {
      // The accuracy credit a client earns is the round's global improvement
      // scaled by the quality of its own (possibly optimized) update, so the
      // agent feels the accuracy cost of aggressive accelerations.
      const double client_accuracy_credit = guard_.SanitizeReward(
          accuracy_delta * (1.0 - EffectOf(outcome.technique).accuracy_impact));
      policy_->Report(outcome.client_id, observations[i], global, outcome.technique,
                      outcome.completed, client_accuracy_credit);
    }
    selector_->OnOutcome(outcome.client_id, outcome.completed, outcome.time_spent_s,
                         round_deadline_s_);
    if (transport_.enabled()) {
      // Effective (post-retransmission) link speed, so bandwidth-aware
      // selectors rank clients by what their links actually deliver.
      selector_->OnTransfer(outcome.client_id, outcome.effective_mbps,
                            clients_[outcome.client_id].network().NominalMbps());
    }
    if (deadline_ctrl_.enabled() && outcome.time_spent_s > 0.0) {
      deadline_ctrl_.Observe(outcome.client_id, outcome.time_spent_s, outcome.effective_mbps);
    }
  }

  // A synchronous server waits out the deadline when it could not close the
  // round with a full cohort. With over-selection, `needed` early
  // completions close the round immediately — the mechanism that shortens
  // mean round duration under injected failures.
  if (accepted < needed) {
    round_duration = round_deadline_s_;
  }

  // Self-healing hook (DESIGN.md §11): grade the round's end state, snapshot
  // it when healthy, roll the surrogate and policy back to the last known
  // good state when diverging. The rollback (if any) happens before the
  // round's accuracy is recorded, so the history reflects the restored
  // trajectory.
  {
    HealthSignal health;
    health.metric = surrogate_->GlobalAccuracy();
    health.loss = 1.0 - health.metric;
    if (tree_on && accepted > 0) {
      health.coverage = static_cast<double>(reached_root) / static_cast<double>(accepted);
    }
    guard_.EndRound(
        round, health,
        [this](CheckpointWriter& w) {
          surrogate_->SaveState(w);
          w.Bool(policy_ != nullptr);
          if (policy_ != nullptr) {
            policy_->SaveState(w);
          }
        },
        [this](CheckpointReader& r) {
          surrogate_->LoadState(r);
          const bool had_policy = r.Bool();
          if (had_policy && policy_ != nullptr) {
            policy_->LoadState(r);
          }
        });
  }

  now_s_ += round_duration + kRoundOverheadS;
  accuracy_history_.push_back(surrogate_->GlobalAccuracy());
  ++rounds_run_;
}

ExperimentResult SyncEngine::Snapshot() const {
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
  result.edge_crashes = topo_tracker_.EdgeCrashes();
  result.edge_blackouts = topo_tracker_.EdgeBlackouts();
  result.reparented_clients = topo_tracker_.ReparentedClients();
  result.orphaned_clients = topo_tracker_.OrphanedClients();
  result.partials_forwarded = topo_tracker_.PartialsForwarded();
  result.partials_lost = topo_tracker_.PartialsLost();
  result.tampered_partials = topo_tracker_.TamperedPartials();
  result.tampered_rejections = topo_tracker_.TamperedRejections();
  result.late_partials = topo_tracker_.LatePartials();
  result.tier1_wire_mb = topo_tracker_.Tier1WireMb();
  result.tier1_retransmitted_mb = topo_tracker_.Tier1RetransmittedMb();
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
  result.backups_planned = salvage_tracker_.BackupsPlanned();
  result.backups_won = salvage_tracker_.BackupsWon();
  result.backups_redundant = salvage_tracker_.BackupsRedundant();
  result.deadline_misses_averted = salvage_tracker_.DeadlineMissesAverted();
  result.transfer_progress_mb = transport_tracker_.TotalProgressMb();
  result.accuracy_history = accuracy_history_;
  result.per_client_selected = tracker_.selected();
  result.per_client_completed = tracker_.completed();
  return result;
}

ExperimentResult SyncEngine::Run() {
  for (size_t round = rounds_run_; round < config_.rounds; ++round) {
    RunRound(round);
  }
  return Snapshot();
}

void SyncEngine::SaveState(CheckpointWriter& w) const {
  w.F64(now_s_);
  w.Size(rounds_run_);
  w.Size(rejected_updates_);
  w.Size(dropout_breakdown_.unavailable);
  w.Size(dropout_breakdown_.out_of_memory);
  w.Size(dropout_breakdown_.missed_deadline);
  w.Size(dropout_breakdown_.departed);
  w.Size(dropout_breakdown_.crashed);
  w.Size(dropout_breakdown_.corrupted);
  w.Size(dropout_breakdown_.rejected);
  w.Size(dropout_breakdown_.transfer_timed_out);
  w.Size(dropout_breakdown_.edge_orphaned);
  w.Size(dropout_breakdown_.shed);
  w.Size(dropout_breakdown_.duplicate);
  w.Size(dropout_breakdown_.replayed);
  w.Size(dropout_breakdown_.rate_limited);
  w.Size(dropout_breakdown_.backup_covered);
  w.Size(dropout_breakdown_.backup_redundant);
  w.F64Vec(accuracy_history_);
  w.Size(clients_.size());
  for (const auto& client : clients_) {
    client.SaveState(w);
  }
  surrogate_->SaveState(w);
  accountant_.SaveState(w);
  tracker_.SaveState(w);
  injector_.SaveState(w);
  selector_->SaveState(w);
  w.Bool(policy_ != nullptr);
  if (policy_ != nullptr) {
    policy_->SaveState(w);
  }
  agg_tracker_.SaveState(w);
  w.F64(round_deadline_s_);
  transport_tracker_.SaveState(w);
  deadline_ctrl_.SaveState(w);
  guard_.SaveState(w);
  edge_injector_.SaveState(w);
  tree_.SaveState(w);
  topo_tracker_.SaveState(w);
  edge_deadline_ctrl_.SaveState(w);
  admission_.SaveState(w);
  update_log_.SaveState(w);
  admission_tracker_.SaveState(w);
  w.F64(redundant_mb_);
  salvage_tracker_.SaveState(w);
  scheduler_.SaveState(w);
  // The RecoveryTracker stays the final section of every engine payload:
  // the recovery tests strip it off the tail to compare training state.
  recovery_tracker_.SaveState(w);
}

void SyncEngine::LoadState(CheckpointReader& r) {
  now_s_ = r.F64();
  rounds_run_ = r.Size();
  rejected_updates_ = r.Size();
  dropout_breakdown_.unavailable = r.Size();
  dropout_breakdown_.out_of_memory = r.Size();
  dropout_breakdown_.missed_deadline = r.Size();
  dropout_breakdown_.departed = r.Size();
  dropout_breakdown_.crashed = r.Size();
  dropout_breakdown_.corrupted = r.Size();
  dropout_breakdown_.rejected = r.Size();
  dropout_breakdown_.transfer_timed_out = r.Size();
  dropout_breakdown_.edge_orphaned = r.Size();
  dropout_breakdown_.shed = r.Size();
  dropout_breakdown_.duplicate = r.Size();
  dropout_breakdown_.replayed = r.Size();
  dropout_breakdown_.rate_limited = r.Size();
  dropout_breakdown_.backup_covered = r.Size();
  dropout_breakdown_.backup_redundant = r.Size();
  accuracy_history_ = r.F64Vec();
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
  surrogate_->LoadState(r);
  accountant_.LoadState(r);
  tracker_.LoadState(r);
  injector_.LoadState(r);
  selector_->LoadState(r);
  const bool had_policy = r.Bool();
  FLOATFL_CHECK_MSG(had_policy == (policy_ != nullptr) || !r.ok(),
                    "checkpoint policy presence mismatch");
  if (had_policy != (policy_ != nullptr)) {
    return;
  }
  if (policy_ != nullptr) {
    policy_->LoadState(r);
  }
  agg_tracker_.LoadState(r);
  round_deadline_s_ = r.F64();
  transport_tracker_.LoadState(r);
  deadline_ctrl_.LoadState(r);
  guard_.LoadState(r);
  edge_injector_.LoadState(r);
  tree_.LoadState(r);
  topo_tracker_.LoadState(r);
  edge_deadline_ctrl_.LoadState(r);
  admission_.LoadState(r);
  update_log_.LoadState(r);
  admission_tracker_.LoadState(r);
  redundant_mb_ = r.F64();
  salvage_tracker_.LoadState(r);
  scheduler_.LoadState(r);
  recovery_tracker_.LoadState(r);
}

}  // namespace floatfl
