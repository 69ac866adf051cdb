#include "src/fl/sync_engine.h"

#include <algorithm>
#include <cmath>

#include "src/agg/quality_agg.h"
#include "src/common/check.h"

namespace floatfl {
namespace {

// Server-side aggregation and bookkeeping gap between rounds, seconds.
constexpr double kRoundOverheadS = 10.0;

// backup_of marker for ordinary (non-backup) cohort slots.
constexpr size_t kPrimarySlot = static_cast<size_t>(-1);

}  // namespace

SyncEngine::SyncEngine(const ExperimentConfig& config, Selector* selector, TuningPolicy* policy)
    : SurrogateEngine(config, policy, config.clients_per_round), selector_(selector) {
  FLOATFL_CHECK(selector_ != nullptr);
  deadline_ctrl_ = AdaptiveDeadlineController(config_.adaptive_deadline, config_.num_clients,
                                              config_.deadline_s);
  edge_deadline_ctrl_ = AdaptiveDeadlineController(config_.topology.edge_adaptive_deadline,
                                                   config_.topology.num_edges, config_.deadline_s);
  scheduler_ = SpeculativeScheduler(config_.salvage);
  round_deadline_s_ = config_.deadline_s;
}

ClientRoundOutcome SyncEngine::SimulateClient(Client& client, size_t round, double now_s,
                                              TechniqueKind technique,
                                              const FaultDecision& fault) const {
  return SimulateClientRound(client, round, now_s, technique, fault, round_deadline_s_,
                             round_deadline_s_);
}

void SyncEngine::ApplyRootPatience(const std::vector<ClientRoundOutcome>& outcomes,
                                   std::vector<size_t>& arrived) {
  // An edge's round time is its slowest completed client's.
  std::vector<double> elapsed(tree_.num_edges(), 0.0);
  for (const auto& outcome : outcomes) {
    if (outcome.completed) {
      const size_t edge = tree_.EffectiveEdge(outcome.client_id);
      elapsed[edge] = std::max(elapsed[edge], outcome.time_spent_s);
    }
  }
  if (edge_deadline_ctrl_.enabled()) {
    const double root_patience = edge_deadline_ctrl_.CurrentDeadline();
    // Every delivered partial (late or not) feeds the estimate, in edge
    // order, so the controller sees the tree's true pace.
    std::vector<size_t> in_time;
    for (size_t edge : arrived) {
      edge_deadline_ctrl_.Observe(edge, elapsed[edge], 0.0);
      if (elapsed[edge] <= root_patience) {
        in_time.push_back(edge);
      } else {
        ++topo_tracker_.late_partials;
      }
    }
    arrived.swap(in_time);
  }
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(static_cast<double>(tree_.num_edges()) /
                                       config_.topology.edge_overcommit)));
  if (arrived.size() > keep) {
    // Edge over-selection: the first `keep` partials by elapsed time close
    // the round, and the root takes them in edge order.
    std::stable_sort(arrived.begin(), arrived.end(),
                     [&](size_t a, size_t b) { return elapsed[a] < elapsed[b]; });
    for (size_t j = keep; j < arrived.size(); ++j) {
      ++topo_tracker_.late_partials;
    }
    arrived.resize(keep);
    std::sort(arrived.begin(), arrived.end());
  }
}

void SyncEngine::RunRound(size_t round) {
  const std::vector<EdgeFaultDecision> edge_decisions = BeginRound(round);
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
    salvage_tracker_.backups_planned += plans.size();
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

  // Phase 1b (sequential): the policy decides in selection order, preserving
  // its internal draw order across thread counts, and the fault draws are
  // batched with it, which keeps phase 2 free of injector calls.
  const std::vector<CohortSlot> cohort =
      DecideCohort(round, selected, now_s_, [&](size_t i) {
        return policy_ != nullptr ? policy_->Decide(selected[i], observations[i], global)
                                  : TechniqueKind::kNone;
      });

  // Phase 2 (parallel): simulate the selected clients. Each task touches
  // only its own client's trace state (selectors sample without
  // replacement), and outcomes land in an index-ordered buffer.
  std::vector<ClientRoundOutcome> outcomes(selected.size());
  ParallelFor(pool_.get(), selected.size(), [&](size_t i) {
    if (Orphaned(selected[i])) {
      // The client never runs, and nothing is charged.
      outcomes[i].client_id = selected[i];
      outcomes[i].technique = cohort[i].technique;
      outcomes[i].reason = DropoutReason::kEdgeOrphaned;
      return;
    }
    outcomes[i] =
        SimulateClient(clients_[selected[i]], round, now_s_, cohort[i].technique, cohort[i].fault);
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
        ++salvage_tracker_.backups_won;
      } else {
        ++salvage_tracker_.backups_redundant;
      }
    } else if (backup.completed) {
      // The primary was interrupted and the backup delivered: the cohort
      // slot is covered.
      if (primary.reason == DropoutReason::kMissedDeadline) {
        ++salvage_tracker_.deadline_misses_averted;
      }
      if (primary.reason != DropoutReason::kCorrupted) {
        primary.reason = DropoutReason::kBackupCovered;
      }
      ++salvage_tracker_.backups_won;
    } else {
      if (backup.reason == DropoutReason::kMissedDeadline) {
        backup.reason = DropoutReason::kBackupRedundant;
      }
      ++salvage_tracker_.backups_redundant;
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
  // at the server's ingress, keyed by this round; every selected client's
  // logged upload may be replayed. Redundant deliveries the burst admits
  // re-enter aggregation below.
  std::vector<ClientContribution> redundant_admitted;
  if (IngestionOn()) {
    std::vector<FreshUpload> fresh;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].completed) {
        continue;
      }
      FreshUpload upload;
      upload.outcome = &outcomes[i];
      upload.observation = &observations[i];
      upload.quality = UploadQuality(outcomes[i], round);
      upload.arrival.client_id = outcomes[i].client_id;
      upload.arrival.round = round;
      const double u = selector_->IngestUtility(upload.arrival.client_id);
      upload.arrival.utility = u > 0.0 ? u : upload.quality;
      fresh.push_back(upload);
    }
    redundant_admitted = IngestBurst(round, fresh, selected, observations, global);
  }

  // Partial-work salvage (DESIGN.md §16): interrupted clients' partials form
  // a second admission burst, keyed with a dedicated attempt id so a partial
  // can never fold into (or be folded by) the client's full upload.
  if (config_.salvage.enabled) {
    std::vector<PartialUpload> partials;
    partials.reserve(outcomes.size());
    for (ClientRoundOutcome& o : outcomes) {
      PartialUpload partial;
      partial.outcome = &o;
      partial.arrival.client_id = o.client_id;
      partial.arrival.round = round;
      partial.arrival.attempt = kPartialUpdateAttempt;
      const double u = selector_->IngestUtility(o.client_id);
      partial.arrival.utility = u > 0.0 ? u : 1.0;
      partials.push_back(partial);
    }
    SalvagePartials(round, partials);
  }

  // Phase 3 (sequential, selection order): bookkeeping, so the accountant's
  // floating-point sums accumulate in a fixed order, and the successful
  // updates the convergence model aggregates. A Byzantine completer submits
  // an adversarially crafted (but validation-passing) quality; the
  // configured aggregation rule then gets its say before the surrogate folds
  // the contributions in.
  const double accuracy_before = surrogate_->GlobalAccuracy();
  std::vector<ClientContribution> contributions;
  double round_duration = 0.0;
  size_t accepted = 0;
  size_t byzantine_selected = 0;
  for (size_t i = 0; i < selected.size(); ++i) {
    const ClientRoundOutcome& outcome = outcomes[i];
    Client& client = clients_[selected[i]];
    ++client.times_selected;
    BookOutcome(client, outcome, round);
    // A backup that covered an orphaned primary took over its slot.
    BookTreeSlot(selected[i], outcome.reason == DropoutReason::kEdgeOrphaned);
    if (outcome.byzantine) {
      ++byzantine_selected;
    }
    if (outcome.completed) {
      ClientContribution contribution;
      contribution.client_id = outcome.client_id;
      contribution.quality = UploadQuality(outcome, round);
      contributions.push_back(contribution);
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
      contribution.quality = UploadQuality(outcome, round);
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
  contributions.insert(contributions.end(), redundant_admitted.begin(), redundant_admitted.end());

  // Edge tier (DESIGN.md §13) in quality space: an edge forwards its
  // cohort's contributions after the edge rule, and the root's patience drops
  // late partials.
  const EdgeRule<ClientContribution> edge_rule{
      .fold =
          [this](std::vector<ClientContribution> members, AggregatorStats* stats) {
            ApplyQualityAggregation(config_.topology.edge_aggregator, members, stats);
            return members;
          },
      .tamper =
          [this, round](ClientContribution& c, size_t edge) {
            c.quality = edge_injector_.TamperedQuality(c.quality, round, edge);
          },
      .valid = [](const ClientContribution& c) { return IsValidUpdateQuality(c.quality); },
      .patience = [&](std::vector<size_t>& arrived) { ApplyRootPatience(outcomes, arrived); },
  };
  const double coverage = AggregateEdges(round, edge_decisions,
                                         GetModelProfile(config_.model).weight_mb, edge_rule,
                                         contributions);
  AggregatorStats agg_stats;
  ApplyQualityAggregation(config_.aggregator, contributions, &agg_stats);
  agg_tracker_.Record(byzantine_selected, agg_stats);
  surrogate_->RoundUpdate(contributions);
  const double accuracy_delta = surrogate_->GlobalAccuracy() - accuracy_before;

  // Feedback to the tuning policy and the selector.
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& outcome = outcomes[i];
    if (policy_ != nullptr) {
      policy_->Report(outcome.client_id, observations[i], global, outcome.technique,
                      outcome.completed, PolicyCredit(accuracy_delta, outcome.technique));
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
  const double metric = surrogate_->GlobalAccuracy();
  CloseRound(round, {.metric = metric, .loss = 1.0 - metric, .coverage = coverage},
             [this](auto& a) { Io(a, surrogate_); });

  now_s_ += round_duration + kRoundOverheadS;
  accuracy_history_.push_back(surrogate_->GlobalAccuracy());
  ++rounds_run_;
}

ExperimentResult SyncEngine::Run() {
  for (size_t round = rounds_run_; round < config_.rounds; ++round) {
    RunRound(round);
  }
  return Snapshot();
}

template <typename Self, typename Archive>
void SyncEngine::Fields(Self& self, Archive& a) {
  Io(a, self.now_s_, self.rounds_run_);
  OutcomeBooksIo(self, a, /*edge_orphaned=*/true);
  IoFixed(a, self.clients_, "checkpoint population size mismatch");
  Io(a, self.surrogate_, self.accountant_, self.tracker_, self.injector_, *self.selector_);
  PolicyIo(self, a, "checkpoint policy presence mismatch");
  Io(a, self.agg_tracker_, self.round_deadline_s_, self.transport_tracker_, self.deadline_ctrl_,
     self.guard_);
  EdgeTierIo(self, a);
  Io(a, self.edge_deadline_ctrl_);
  IngressIo(self, a);
  Io(a, self.redundant_mb_, self.salvage_tracker_, self.scheduler_);
  // The RecoveryTracker stays the final section of every engine payload:
  // the recovery tests strip it off the tail to compare training state.
  Io(a, self.recovery_tracker_);
}

void SyncEngine::SaveState(CheckpointWriter& w) const { Fields(*this, w); }

void SyncEngine::LoadState(CheckpointReader& r) { Fields(*this, r); }

}  // namespace floatfl
