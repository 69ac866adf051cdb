#include "src/fl/real_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/data/dirichlet.h"
#include "src/failure/checkpoint_util.h"
#include "src/fl/cost_model.h"
#include "src/fl/experiment.h"
#include "src/opt/compress.h"
#include "src/opt/prune.h"
#include "src/opt/quantize.h"

namespace floatfl {
namespace {

// Overwrites a trained parameter vector with the configured poison: NaNs,
// Infs, or an exploded (scaled) norm.
void PoisonParams(std::vector<float>& params, uint32_t kind, double scale) {
  switch (kind) {
    case 0:
      std::fill(params.begin(), params.end(), std::numeric_limits<float>::quiet_NaN());
      break;
    case 1:
      std::fill(params.begin(), params.end(), std::numeric_limits<float>::infinity());
      break;
    default:
      for (float& p : params) {
        p = static_cast<float>(p * scale);
      }
      break;
  }
}

// Rewrites a completed (and already optimization-processed) update into the
// configured Byzantine attack, relative to the round's starting global
// parameters. Crafted to stay finite and within realistic norms, so it
// passes server validation — defeating it is the aggregator's job.
void ApplyByzantineAttack(std::vector<float>& params, const std::vector<float>& global,
                          const FaultConfig& faults, Rng attack_rng) {
  const double scale = faults.byzantine_scale;
  switch (faults.byzantine_mode) {
    case ByzantineMode::kSignFlip:
      for (size_t i = 0; i < params.size(); ++i) {
        const double delta = static_cast<double>(params[i]) - global[i];
        params[i] = static_cast<float>(global[i] - scale * delta);
      }
      break;
    case ByzantineMode::kScaledReplacement:
      for (size_t i = 0; i < params.size(); ++i) {
        const double delta = static_cast<double>(params[i]) - global[i];
        params[i] = static_cast<float>(global[i] + scale * delta);
      }
      break;
    case ByzantineMode::kGaussianNoise:
      for (float& p : params) {
        p = static_cast<float>(p + attack_rng.Normal(0.0, scale));
      }
      break;
    case ByzantineMode::kNone:
    default:
      break;
  }
}

// Server-side validation: every value finite and the update's L2 norm under
// the quarantine threshold.
bool ValidRealUpdate(const std::vector<float>& params, double norm_threshold) {
  double sq = 0.0;
  for (float p : params) {
    if (!std::isfinite(p)) {
      return false;
    }
    sq += static_cast<double>(p) * static_cast<double>(p);
  }
  return std::sqrt(sq) <= norm_threshold;
}

}  // namespace

RealFlEngine::RealFlEngine(const RealFlConfig& config)
    : ServerCore(config.seed, config.num_clients, config.num_threads, config.faults, config.guard,
                 config.topology, config.admission, config.salvage, nullptr),
      config_(config),
      aggregator_(MakeAggregator(config.aggregator)),
      edge_aggregator_(MakeAggregator(config.topology.edge_aggregator)),
      rng_(config.seed),
      client_stream_root_(config.seed ^ 0x7C159E3779B97F4AULL) {
  FLOATFL_CHECK(config.num_clients > 0);
  FLOATFL_CHECK(config.clients_per_round > 0);
  FLOATFL_CHECK(config.num_classes >= 2);
  // An empty test set scores every round NaN, which the guard never judges
  // healthy, so it could never roll back.
  FLOATFL_CHECK_MSG(config.test_samples_per_class > 0, "test_samples_per_class must be positive");
  // No wall clock means no deadline race a backup could win; refuse rather
  // than silently ignore, like the async engine.
  FLOATFL_CHECK_MSG(!config_.salvage.speculation,
                    "real engine does not support speculative re-execution");

  task_ = std::make_unique<SyntheticTaskData>(config.num_classes, config.input_dim,
                                              config.class_separation, rng_);

  PartitionConfig partition;
  partition.num_clients = config.num_clients;
  partition.num_classes = config.num_classes;
  partition.alpha = config.alpha;
  partition.samples_median = 60.0;
  partition.samples_sigma = 0.4;
  partition.min_samples = 10;
  shards_ = PartitionDirichlet(partition, rng_);

  client_inputs_.resize(shards_.size());
  client_labels_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    task_->MaterializeShard(shards_[i], rng_, &client_inputs_[i], &client_labels_[i]);
  }

  model_dims_.push_back(config.input_dim);
  for (size_t h : config.hidden_dims) {
    model_dims_.push_back(h);
  }
  model_dims_.push_back(config.num_classes);
  global_ = std::make_unique<Mlp>(model_dims_, rng_);

  task_->MakeTestSet(config.test_samples_per_class, rng_, &test_inputs_, &test_labels_);
}

size_t RealFlEngine::DenseUpdateBytes() const { return global_->ParamCount() * sizeof(float); }

size_t RealFlEngine::FrozenLayersFor(TechniqueKind technique) const {
  const double frac = PartialTrainingFraction(technique);
  if (frac <= 0.0) {
    return 0;
  }
  // Freeze the leading fraction of layers, keeping at least the output layer
  // trainable.
  const size_t layers = global_->NumLayers();
  const size_t frozen = static_cast<size_t>(std::llround(frac * static_cast<double>(layers)));
  return std::min(frozen, layers - 1);
}

RealFlEngine::ProcessedUpdate RealFlEngine::ProcessUpload(std::vector<float> params,
                                                          TechniqueKind technique) const {
  ProcessedUpdate out;
  switch (technique) {
    case TechniqueKind::kQuant16:
    case TechniqueKind::kQuant8: {
      const int bits = QuantizationBits(technique);
      const QuantizedBlob blob = Quantize(params, bits);
      out.upload_bytes = blob.ByteSize();
      out.params = Dequantize(blob);
      double max_err = 0.0;
      for (size_t i = 0; i < params.size(); ++i) {
        max_err = std::max(max_err, std::fabs(static_cast<double>(params[i]) - out.params[i]));
      }
      out.max_error = max_err;
      return out;
    }
    case TechniqueKind::kPrune25:
    case TechniqueKind::kPrune50:
    case TechniqueKind::kPrune75: {
      double max_before = 0.0;
      std::vector<float> original = params;
      MagnitudePrune(params, PruningFraction(technique));
      for (size_t i = 0; i < params.size(); ++i) {
        max_before =
            std::max(max_before, std::fabs(static_cast<double>(original[i]) - params[i]));
      }
      out.upload_bytes = SparseEncodingBytes(params);
      out.params = std::move(params);
      out.max_error = max_before;
      return out;
    }
    case TechniqueKind::kCompressLossless: {
      // Quantize to 16 bits (near-lossless) then RLE-compress the codes,
      // falling back to the raw codes when the payload is incompressible
      // (dense weight noise) — as any real sender would.
      const QuantizedBlob blob = Quantize(params, 16);
      const size_t compressed = RleCompress(blob.data).size();
      out.upload_bytes = std::min(compressed, blob.data.size()) + sizeof(float) * 2;
      out.params = Dequantize(blob);
      double max_err = 0.0;
      for (size_t i = 0; i < params.size(); ++i) {
        max_err = std::max(max_err, std::fabs(static_cast<double>(params[i]) - out.params[i]));
      }
      out.max_error = max_err;
      return out;
    }
    case TechniqueKind::kNone:
    case TechniqueKind::kPartial25:
    case TechniqueKind::kPartial50:
    case TechniqueKind::kPartial75:
    default:
      // Partial training changes what gets *trained*, not the serialization.
      out.upload_bytes = params.size() * sizeof(float);
      out.params = std::move(params);
      return out;
  }
}

RealRoundStats RealFlEngine::RunRound(
    const std::function<TechniqueKind(size_t)>& choose_technique) {
  return RunRoundImpl(choose_technique, nullptr);
}

RealRoundStats RealFlEngine::RunRoundImpl(
    const std::function<TechniqueKind(size_t)>& choose_technique,
    const std::function<void(size_t, TechniqueKind, bool, double)>& report) {
  const std::vector<float> global_params = global_->GetParameters();
  const std::vector<size_t> order = rng_.Permutation(shards_.size());
  const size_t k = std::min(config_.clients_per_round, shards_.size());
  const size_t round = rounds_run_++;
  const std::vector<EdgeFaultDecision> edge_decisions = BeginRound(round);
  const bool tree_on = tree_.enabled();
  // Round-start test accuracy, the baseline for the policy's accuracy
  // credit. Only needed when someone consumes the credit. The global model
  // is the one the previous round ended with, so that round's accuracy is
  // reused when this engine ran it.
  const std::optional<double> carried = std::exchange(round_end_accuracy_, std::nullopt);
  const double accuracy_before = !report ? 0.0 : carried ? *carried : EvaluateAccuracy();

  // Phase 1 (sequential): technique choices — the callback may be stateful —
  // and fault draws (each from its own (round, client)-keyed stream). The
  // engine has no wall clock; the round index stands in for time, so
  // blackout windows are in round units. The guard gets a veto over every
  // chosen technique (safe mode / quarantine masks it to kNone).
  std::vector<TechniqueKind> techniques(k, TechniqueKind::kNone);
  std::vector<size_t> frozen_layers(k, 0);
  std::vector<FaultDecision> faults(k);
  for (size_t i = 0; i < k; ++i) {
    techniques[i] = guard_.Filter(choose_technique(order[i]), round);
    frozen_layers[i] = FrozenLayersFor(techniques[i]);
    if (injector_.enabled()) {
      faults[i] = injector_.Decide(round, order[i], static_cast<double>(round));
    }
  }
  // Graceful degradation (DESIGN.md §16): where inside its local work each
  // crash-faulted client was interrupted, from the injector's own salted
  // (round, client) streams, quantized to whole mini-batch steps. Sequential
  // and salvage-gated: with salvage off no draw happens and nothing changes.
  // Both stay zero for healthy clients.
  const bool salvage_on = config_.salvage.enabled;
  std::vector<double> salvage_fractions(k, 0.0);
  std::vector<size_t> salvage_steps(k, 0);
  if (salvage_on) {
    for (size_t i = 0; i < k; ++i) {
      if (!faults[i].crash || faults[i].blackout) {
        continue;  // blackout preempts: the client never even started
      }
      const size_t id = order[i];
      const size_t total =
          TotalLocalSteps(client_labels_[id].size(), config_.sgd.epochs, config_.sgd.batch_size);
      if (total == 0) {
        continue;
      }
      const double point = injector_.InterruptionPoint(round, id);
      salvage_steps[i] = static_cast<size_t>(point * static_cast<double>(total));
      salvage_fractions[i] =
          static_cast<double>(salvage_steps[i]) / static_cast<double>(total);
    }
  }

  // Phase 2 (parallel): local training and upload processing. Each client
  // trains on its own (round, client_id)-keyed RNG stream, so the trained
  // weights do not depend on which thread — or in which order — clients run.
  // A crashed (or blacked-out) client never delivers; a corrupted one
  // delivers a poisoned tensor.
  std::vector<ProcessedUpdate> processed(k);
  std::vector<uint8_t> delivered(k, 1);
  std::vector<uint8_t> valid(k, 0);
  std::vector<TransferResult> transfers(k);
  ParallelFor(pool_.get(), k, [&](size_t i) {
    if (tree_on && tree_.EffectiveEdge(order[i]) == AggregationTree::kOrphaned) {
      // No live edge to report to: the client is never tasked and trains
      // nothing (phase 3 attributes the orphan, not a crash).
      delivered[i] = 0;
      return;
    }
    const bool interrupted = faults[i].crash || faults[i].blackout;
    if (interrupted) {
      delivered[i] = 0;
      // Partial-work salvage (DESIGN.md §16): a crash-faulted client with a
      // qualifying interruption point still trains — the same shuffled batch
      // sequence, cut short at its drawn step count — and ships the partial.
      // Below min_progress the work is forfeited without training (phase 3
      // attributes the below-min discard).
      if (salvage_steps[i] == 0 || salvage_fractions[i] < config_.salvage.min_progress) {
        return;
      }
    }
    const size_t id = order[i];
    Rng client_rng = client_stream_root_.ForkKeyed(Rng::StreamKey(round, id));
    // A copy of the global model. SGD draws start past a fresh model's init
    // draws, the stream positions the recorded goldens were made with.
    Mlp local = *global_;
    client_rng.Discard(Mlp::InitDraws(model_dims_));
    SgdConfig sgd = config_.sgd;
    sgd.frozen_layers = frozen_layers[i];
    if (interrupted) {
      sgd.max_steps = salvage_steps[i];
    }
    TrainSgd(local, client_inputs_[id], client_labels_[id], sgd, client_rng);
    processed[i] = ProcessUpload(local.GetParameters(), techniques[i]);
    if (faults[i].corrupt) {
      PoisonParams(processed[i].params, faults[i].corrupt_kind, config_.faults.corrupt_scale);
    } else if (faults[i].byzantine) {
      ApplyByzantineAttack(processed[i].params, global_params, config_.faults,
                           injector_.AttackRng(round, id));
    }
    if (interrupted) {
      // The partial is recovered from the crashed client's last report; no
      // fresh upload transfer happens on its behalf.
      return;
    }
    // Server-side validation of the update as it arrives, computed here so
    // that phase 3 only reads the verdict.
    valid[i] = ValidRealUpdate(processed[i].params, config_.faults.reject_norm_threshold);
    if (transport_.enabled()) {
      // Lossy upload delivery over the *actual* serialized size, so heavier
      // uploads chunk into more loss draws. The engine has no wall clock;
      // TryDeliver charges bytes and retries, not time. (round, id)-keyed,
      // so thread order is irrelevant.
      const double payload_mb =
          static_cast<double>(processed[i].upload_bytes) / (1024.0 * 1024.0);
      transfers[i] = transport_.TryDeliver(round, id, payload_mb, TransferLeg::kUpload,
                                           config_.faults.resumable_uploads);
    }
  });

  // Phase 3 (sequential, selection order): server-side rulings on phase 2's
  // validation verdicts, then a fixed-order reduction through the configured
  // aggregator.
  std::vector<std::vector<float>> updates;
  std::vector<double> weights;
  RealRoundStats stats;
  double total_bytes = 0.0;
  double total_error = 0.0;
  std::vector<uint8_t> participated(k, 0);
  std::vector<DropoutReason> reasons(k, DropoutReason::kNone);
  std::vector<size_t> update_edges;  // effective edge per accepted update
  const bool ingest_on = IngestionOn();
  std::vector<size_t> passing;  // selection indices that reached the server door
  // Validated partial updates from interrupted clients (DESIGN.md §16),
  // collected in selection order and appended to the aggregate — behind the
  // admission gate, under the partial dedup namespace — after the fresh
  // uploads have been ruled on. Validation sees the tensor as it would enter
  // aggregation, so a poisoned partial is quarantined at that amplitude.
  std::vector<PartialArrival> partial_arrivals;
  std::vector<std::vector<float>> partial_params;
  // A fresh upload the server accepts, and any update entering the FedAvg
  // reduction under its client's effective edge.
  auto participate = [&](size_t i) {
    participated[i] = 1;
    total_bytes += static_cast<double>(processed[i].upload_bytes);
    total_error += processed[i].max_error;
  };
  auto aggregate = [&](size_t client, std::vector<float> params, double weight) {
    updates.push_back(std::move(params));
    weights.push_back(weight);
    if (tree_on) {
      update_edges.push_back(tree_.EffectiveEdge(client));
    }
  };
  auto below_min = [&] {
    ++stats.partials_below_min;
    salvage_tracker_.RecordPartialBelowMin();
  };
  auto add_partial = [&](size_t i, std::vector<float> params, double fraction, size_t steps,
                         double acked_mb) {
    if (!ValidRealUpdate(params, config_.faults.reject_norm_threshold)) {
      ++stats.partials_rejected;
      salvage_tracker_.RecordPartialRejected();
      return;
    }
    PartialArrival p;
    p.arrival.client_id = order[i];
    p.arrival.round = round;
    p.arrival.attempt = kPartialUpdateAttempt;
    p.arrival.utility = static_cast<double>(shards_[order[i]].total);
    p.fraction = fraction;
    p.steps = steps;
    p.acked_mb = acked_mb;
    partial_arrivals.push_back(p);
    partial_params.push_back(std::move(params));
  };
  // This round's admission counters, folded into the run's totals once both
  // of its bursts (fresh uploads, then partials) have been ruled on.
  AdmissionTracker round_admission;
  for (size_t i = 0; i < k; ++i) {
    if (faults[i].byzantine) {
      ++stats.byzantine_selected;
    }
    if (tree_on) {
      const size_t effective = tree_.EffectiveEdge(order[i]);
      if (effective == AggregationTree::kOrphaned) {
        ++stats.orphaned;
        topo_tracker_.RecordOrphaned(1);
        reasons[i] = DropoutReason::kEdgeOrphaned;
        continue;
      }
      if (effective != tree_.HomeEdge(order[i])) {
        ++stats.reparented;
        topo_tracker_.RecordReparented(1);
      }
    }
    if (!delivered[i]) {
      ++stats.crashed;
      reasons[i] = faults[i].blackout ? DropoutReason::kUnavailable : DropoutReason::kCrashed;
      // The client is a dropout either way (the guard and the policy see it
      // as one); salvage only decides whether its partial work survives.
      if (salvage_on && salvage_fractions[i] > 0.0) {
        if (salvage_fractions[i] < config_.salvage.min_progress) {
          below_min();
        } else {
          // Progress normalization (DESIGN.md §16): a truncated run's delta
          // is roughly `fraction` of a full epoch's, so averaging the raw
          // partial into FedAvg drags the round's step back toward the stale
          // global. Extrapolate the delta to full-epoch scale — bounded by
          // 1 / min_progress — and let the samples x fraction aggregation
          // weight carry the reduced trust instead.
          std::vector<float> extrapolated = std::move(processed[i].params);
          const float inv_fraction = static_cast<float>(1.0 / salvage_fractions[i]);
          for (size_t j = 0; j < extrapolated.size(); ++j) {
            extrapolated[j] =
                global_params[j] + (extrapolated[j] - global_params[j]) * inv_fraction;
          }
          add_partial(i, std::move(extrapolated), salvage_fractions[i], salvage_steps[i], 0.0);
        }
      }
      continue;
    }
    if (transport_.enabled()) {
      transport_tracker_.Record(transfers[i].attempts, transfers[i].wire_mb,
                                transfers[i].retransmitted_mb, transfers[i].salvaged_mb,
                                transfers[i].progress_mb, transfers[i].backoff_s,
                                transfers[i].timed_out);
      stats.retransmitted_mb += transfers[i].retransmitted_mb;
      stats.salvaged_mb += transfers[i].salvaged_mb;
      if (!transfers[i].delivered) {
        // The trained update never survived the lossy link: nothing reaches
        // validation or aggregation intact.
        ++stats.transfer_timeouts;
        reasons[i] = DropoutReason::kTransferTimedOut;
        // Prefix-patch salvage (DESIGN.md §16): the acked byte prefix of the
        // serialized upload is real trained data; splice it over the round's
        // starting global parameters and weight by the acked fraction.
        if (salvage_on) {
          const double payload_mb =
              static_cast<double>(processed[i].upload_bytes) / (1024.0 * 1024.0);
          const double frac =
              payload_mb > 0.0 ? std::min(1.0, transfers[i].progress_mb / payload_mb) : 0.0;
          if (frac > 0.0 && frac < config_.salvage.min_progress) {
            below_min();
          } else if (frac >= config_.salvage.min_progress) {
            std::vector<float> patched = global_params;
            const size_t prefix = std::min(
                patched.size(), static_cast<size_t>(frac * static_cast<double>(patched.size())));
            std::copy(processed[i].params.begin(), processed[i].params.begin() + prefix,
                      patched.begin());
            // Training finished in full; only the transfer was cut short.
            add_partial(i, std::move(patched), frac,
                        TotalLocalSteps(client_labels_[order[i]].size(), config_.sgd.epochs,
                                        config_.sgd.batch_size),
                        transfers[i].progress_mb);
          }
        }
        continue;
      }
    }
    if (!valid[i]) {
      ++stats.rejected_updates;
      reasons[i] = DropoutReason::kCorrupted;
      continue;
    }
    if (ingest_on) {
      // Admission decides this upload's fate below; defer the acceptance.
      passing.push_back(i);
      continue;
    }
    participate(i);
    aggregate(order[i], std::move(processed[i].params),
              static_cast<double>(shards_[order[i]].total));
  }
  if (ingest_on) {
    // Server ingestion (DESIGN.md §15): the round's validated uploads form
    // one ingestion burst — possibly reordered, duplicated, and joined by
    // replays of earlier accepted uploads — and the admission gate rules on
    // it in arrival order. An admitted redundant delivery is re-processed in
    // full: its parameter vector re-enters the FedAvg reduction and its wire
    // volume is booked as redundant; a doorstep rejection costs nothing.
    auto upload_mb = [&](size_t i) {
      return static_cast<double>(processed[i].upload_bytes) / (1024.0 * 1024.0);
    };
    std::vector<AdmissionController::Arrival> arrivals(passing.size());
    for (size_t j = 0; j < passing.size(); ++j) {
      arrivals[j].client_id = order[passing[j]];
      arrivals[j].round = round;
      // Utility-priority shedding keeps the data-rich uploads.
      arrivals[j].utility = static_cast<double>(shards_[order[passing[j]]].total);
    }
    AdmitBurst(
        round, arrivals, std::span<const size_t>(order.data(), k), &LoggedUpload::weight,
        &round_admission,
        [&](const IngressDelivery& d, const AdmissionController::Verdict& v) {
          const bool replay = d.kind == IngressDelivery::Kind::kReplay;
          const size_t i = replay ? d.source : passing[d.source];
          if (!v.admitted) {
            if (d.kind == IngressDelivery::Kind::kFresh) {
              reasons[i] = v.reason;
            } else if (report) {
              // A doorstep-rejected redundant still costs the policy one
              // participated=false report — the delivery happened, the
              // server just refused to process it.
              report(order[i], techniques[i], false, 0.0);
            }
            return;
          }
          ++stats.admitted;
          if (d.kind == IngressDelivery::Kind::kFresh) {
            participate(i);
          } else {
            stats.redundant_upload_mb += replay ? d.logged->upload_mb : upload_mb(i);
          }
          // Copies, not moves: duplicates of this upload may still arrive.
          aggregate(order[i], replay ? d.logged->params : processed[i].params,
                    (replay ? d.logged->weight : static_cast<double>(shards_[order[i]].total)) *
                        v.weight);
        },
        [&](size_t j) {
          const size_t i = passing[j];
          LoggedUpload entry;
          entry.upload_mb = upload_mb(i);
          entry.technique = static_cast<uint32_t>(techniques[i]);
          entry.params = std::move(processed[i].params);
          entry.weight = static_cast<double>(shards_[order[i]].total);
          return entry;
        });
    // Each refusal records one count, and the round's tracker holds only
    // this burst so far.
    stats.deduplicated = round_admission.Deduplicated();
    stats.shed = round_admission.Shed();
    stats.rate_limited = round_admission.RateLimited();
    stats.replay_rejected = round_admission.ReplayRejected();
  }
  // Partial updates enter through the same admission gate as fresh uploads
  // (one burst, selection order) under the partial dedup namespace, with
  // utility discounted by the completed-work fraction so shedding drops the
  // thinnest partials first. An admitted partial re-enters FedAvg at
  // step-fraction weight; the client itself stays a dropout.
  const std::vector<AdmissionController::Verdict> partial_verdicts =
      AdmitPartials(round, partial_arrivals, &round_admission);
  for (size_t n = 0; n < partial_verdicts.size(); ++n) {
    const PartialArrival& p = partial_arrivals[n];
    if (!partial_verdicts[n].admitted) {
      ++stats.partials_rejected;
      continue;
    }
    ++stats.partials_salvaged;
    stats.salvaged_steps += p.steps;
    aggregate(p.arrival.client_id, std::move(partial_params[n]),
              static_cast<double>(shards_[p.arrival.client_id].total) * p.fraction *
                  partial_verdicts[n].weight);
  }
  stats.peak_queue_depth = round_admission.PeakQueueDepth();
  admission_tracker_.Merge(round_admission);
  // Failure attribution for the guard's quarantine (selection order).
  for (size_t i = 0; i < k; ++i) {
    guard_.Observe(techniques[i], participated[i] != 0, reasons[i], round);
  }

  AggregatorStats agg_stats;
  // With ingestion active, `updates` may carry admitted redundant deliveries
  // on top of the originals; participant accounting counts only the latter.
  const size_t accepted_clients = updates.size();
  size_t original_accepted = accepted_clients;
  if (ingest_on) {
    original_accepted = 0;
    for (size_t i = 0; i < k; ++i) {
      original_accepted += participated[i];
    }
  }
  size_t clients_at_root = accepted_clients;
  if (tree_on && !updates.empty()) {
    // Edge tier (DESIGN.md §13): fold each effective edge's cohort into one
    // parameter-space partial with the edge aggregation rule, let Byzantine
    // edges tamper with theirs, carry each partial over the (possibly lossy)
    // inter-tier link, and re-validate at the root. The root then aggregates
    // partials — weighted by their cohorts' sample counts — instead of raw
    // client updates. Losing one partial loses its whole cohort.
    clients_at_root = 0;
    const double partial_mb = static_cast<double>(DenseUpdateBytes()) / (1024.0 * 1024.0);
    std::vector<std::vector<float>> partials;
    std::vector<double> partial_weights;
    std::vector<std::vector<float>> group_updates;
    std::vector<double> group_weights;
    for (size_t edge = 0; edge < tree_.num_edges(); ++edge) {
      group_updates.clear();
      group_weights.clear();
      double cohort_weight = 0.0;
      for (size_t u = 0; u < updates.size(); ++u) {
        if (update_edges[u] == edge) {
          group_updates.push_back(std::move(updates[u]));
          group_weights.push_back(weights[u]);
          cohort_weight += weights[u];
        }
      }
      if (group_updates.empty()) {
        continue;
      }
      AggregatorStats edge_stats;
      std::vector<float> partial =
          edge_aggregator_->Aggregate(group_updates, group_weights, global_params, &edge_stats);
      topo_tracker_.RecordEdgeAggExclusions(edge_stats.updates_clipped +
                                            edge_stats.krum_rejections +
                                            edge_stats.updates_trimmed);
      if (edge_injector_.enabled() && edge_decisions[edge].byzantine) {
        FaultConfig tamper;
        tamper.byzantine_mode = config_.topology.edge_byzantine_mode;
        tamper.byzantine_scale = config_.topology.edge_byzantine_scale;
        ApplyByzantineAttack(partial, global_params, tamper,
                             edge_injector_.AttackRng(round, edge));
        topo_tracker_.RecordTampered();
        ++stats.tampered_partials;
      }
      if (!ForwardPartial(round, edge, partial_mb)) {
        ++stats.partials_lost;
        continue;
      }
      if (!ValidRealUpdate(partial, config_.faults.reject_norm_threshold)) {
        topo_tracker_.RecordTamperedRejections(1);
        ++stats.tampered_rejections;
        continue;
      }
      clients_at_root += group_updates.size();
      partials.push_back(std::move(partial));
      partial_weights.push_back(cohort_weight);
    }
    updates.swap(partials);
    weights.swap(partial_weights);
  }
  if (!updates.empty()) {
    global_->SetParameters(aggregator_->Aggregate(updates, weights, global_params, &agg_stats));
  }
  agg_tracker_.Record(stats.byzantine_selected, agg_stats);
  stats.updates_clipped = agg_stats.updates_clipped;
  stats.krum_rejections = agg_stats.krum_rejections;
  stats.updates_trimmed = agg_stats.updates_trimmed;

  stats.participants = original_accepted;
  stats.mean_upload_bytes = original_accepted == 0 ? 0.0 : total_bytes / original_accepted;
  stats.mean_update_error = original_accepted == 0 ? 0.0 : total_error / original_accepted;
  Mlp::Evaluation eval = EvaluateTestSet();
  stats.test_accuracy = eval.accuracy;
  stats.test_loss = eval.loss;

  // Policy feedback: every selected client reports, dropouts included, with
  // the round's test-accuracy delta scaled by its technique's quality.
  if (report) {
    const double accuracy_delta = stats.test_accuracy - accuracy_before;
    for (size_t i = 0; i < k; ++i) {
      const double credit = guard_.SanitizeReward(
          accuracy_delta * (1.0 - EffectOf(techniques[i]).accuracy_impact));
      report(order[i], techniques[i], participated[i] != 0, credit);
    }
  }

  // Self-healing hook (DESIGN.md §11): snapshot the global model (and the
  // attached policy) when the test metrics are healthy; restore the last
  // known good pair when they diverge. Runs after the policy feedback so the
  // rollback also discards any Q-updates the bad round just taught.
  {
    HealthSignal health;
    health.metric = stats.test_accuracy;
    health.loss = stats.test_loss;
    if (tree_on && accepted_clients > 0) {
      health.coverage =
          static_cast<double>(clients_at_root) / static_cast<double>(accepted_clients);
    }
    const bool rolled_back = guard_.EndRound(
        round, health,
        [this](CheckpointWriter& w) {
          w.F32Vec(global_->GetParameters());
          SavePolicy(w);
        },
        [this](CheckpointReader& r) {
          const std::vector<float> params = r.F32Vec();
          FLOATFL_CHECK_MSG(params.size() == global_->ParamCount(),
                            "guard snapshot model parameter count mismatch");
          global_->SetParameters(params);
          LoadPolicy(r);
        });
    if (rolled_back) {
      stats.rolled_back = true;
      eval = EvaluateTestSet();
      stats.test_accuracy = eval.accuracy;
      stats.test_loss = eval.loss;
    }
  }
  round_end_accuracy_ = stats.test_accuracy;
  return stats;
}

RealRoundStats RealFlEngine::RunRound(TechniqueKind technique) {
  return RunRound([technique](size_t) { return technique; });
}

RealRoundStats RealFlEngine::RunRoundWithPolicy() {
  FLOATFL_CHECK_MSG(policy_ != nullptr, "RunRoundWithPolicy requires an attached policy");
  GlobalObservation global;
  global.batch_size = config_.sgd.batch_size;
  global.epochs = config_.sgd.epochs;
  global.participants = config_.clients_per_round;
  // The real engine has no interference/availability traces; every client
  // presents the neutral observation and the policy differentiates through
  // the per-client feedback it accumulates.
  const ClientObservation neutral;
  return RunRoundImpl(
      [&](size_t id) { return policy_->Decide(id, neutral, global); },
      [&](size_t id, TechniqueKind technique, bool ok, double credit) {
        policy_->Report(id, neutral, global, technique, ok, credit);
      });
}

Mlp::Evaluation RealFlEngine::EvaluateTestSet() const {
  return global_->Evaluate(test_inputs_, test_labels_, pool_.get());
}

double RealFlEngine::EvaluateAccuracy() const { return EvaluateTestSet().accuracy; }

void RealFlEngine::SaveState(CheckpointWriter& w) const {
  w.Size(rounds_run_);
  SaveRng(w, rng_);
  SaveRng(w, client_stream_root_);
  w.F32Vec(global_->GetParameters());
  injector_.SaveState(w);
  aggregator_->SaveState(w);
  agg_tracker_.SaveState(w);
  transport_tracker_.SaveState(w);
  SavePolicy(w);
  guard_.SaveState(w);
  SaveEdgeTier(w);
  edge_aggregator_->SaveState(w);
  SaveIngress(w);
  salvage_tracker_.SaveState(w);
  // The RecoveryTracker stays the final section of every engine payload:
  // the recovery tests strip it off the tail to compare training state.
  recovery_tracker_.SaveState(w);
}

void RealFlEngine::LoadState(CheckpointReader& r) {
  round_end_accuracy_.reset();
  rounds_run_ = r.Size();
  LoadRng(r, rng_);
  LoadRng(r, client_stream_root_);
  const std::vector<float> params = r.F32Vec();
  FLOATFL_CHECK_MSG(params.size() == global_->ParamCount() || !r.ok(),
                    "checkpoint model parameter count mismatch");
  if (r.ok()) {
    global_->SetParameters(params);
  }
  injector_.LoadState(r);
  aggregator_->LoadState(r);
  agg_tracker_.LoadState(r);
  transport_tracker_.LoadState(r);
  const bool policy_matches = LoadPolicy(r);
  FLOATFL_CHECK_MSG(policy_matches || !r.ok(), "checkpoint policy presence mismatch");
  if (!policy_matches) {
    return;
  }
  guard_.LoadState(r);
  LoadEdgeTier(r);
  edge_aggregator_->LoadState(r);
  LoadIngress(r);
  salvage_tracker_.LoadState(r);
  recovery_tracker_.LoadState(r);
}

}  // namespace floatfl
