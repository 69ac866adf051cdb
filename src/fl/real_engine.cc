#include "src/fl/real_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/check.h"
#include "src/data/dirichlet.h"
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

// Rewrites a completed (and already optimization-processed) update, or an
// edge's partial, into a Byzantine attack of `mode` at `scale`, relative to
// the round's starting global parameters. A client's attack is crafted to
// stay finite and within realistic norms, so it passes server validation —
// defeating it is the aggregator's job.
void ApplyByzantineAttack(std::vector<float>& params, const std::vector<float>& global,
                          ByzantineMode mode, double scale, Rng attack_rng) {
  switch (mode) {
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

// The model as its flat parameter vector, read back only at the model's own
// parameter count (the `mismatch` failure otherwise).
void ParamsIo(CheckpointWriter& w, const Mlp& model, const char*) {
  Io(w, model.GetParameters());
}
void ParamsIo(CheckpointReader& r, Mlp& model, const char* mismatch) {
  std::vector<float> params(model.ParamCount());
  IoFixed(r, params, mismatch);
  if (r.ok()) {
    model.SetParameters(params);
  }
}

// `config` once every field the engine builds from is in range, so the
// constructor refuses a config it cannot run, naming the field, before it
// builds anything.
const RealFlConfig& Validated(const RealFlConfig& config) {
  FLOATFL_CHECK_MSG(config.num_clients > 0, "num_clients must be positive");
  FLOATFL_CHECK_MSG(config.clients_per_round > 0, "clients_per_round must be positive");
  FLOATFL_CHECK_MSG(config.num_classes >= 2, "num_classes must be at least 2");
  FLOATFL_CHECK_MSG(config.input_dim > 0, "input_dim must be positive");
  FLOATFL_CHECK_MSG(config.class_separation > 0.0, "class_separation must be positive");
  FLOATFL_CHECK_MSG(config.alpha > 0.0, "alpha must be positive");
  for (size_t width : config.hidden_dims) {
    FLOATFL_CHECK_MSG(width > 0, "every hidden_dims width must be positive");
  }
  FLOATFL_CHECK_MSG(config.sgd.batch_size > 0, "sgd.batch_size must be positive");
  FLOATFL_CHECK_MSG(config.sgd.epochs > 0, "sgd.epochs must be positive");
  FLOATFL_CHECK_MSG(std::isfinite(config.sgd.learning_rate) && config.sgd.learning_rate > 0.0f,
                    "sgd.learning_rate must be finite and positive");
  // An empty test set scores every round NaN, which the guard never judges
  // healthy, so it could never roll back.
  FLOATFL_CHECK_MSG(config.test_samples_per_class > 0, "test_samples_per_class must be positive");
  // No wall clock means no deadline race a backup could win; refuse rather
  // than silently ignore, like the async engine.
  FLOATFL_CHECK_MSG(!config.salvage.speculation,
                    "real engine does not support speculative re-execution");
  ValidateFaultConfig(config.faults);
  ValidateAggregatorConfig(config.aggregator);
  ValidateGuardConfig(config.guard);
  ValidateTopologyConfig(config.topology);
  ValidateAdmissionConfig(config.admission);
  ValidateSalvageConfig(config.salvage);
  return config;
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

// The model's layer widths: input, hidden..., classes.
std::vector<size_t> ModelDims(const RealFlConfig& config) {
  std::vector<size_t> dims = {config.input_dim};
  dims.insert(dims.end(), config.hidden_dims.begin(), config.hidden_dims.end());
  dims.push_back(config.num_classes);
  return dims;
}

}  // namespace

struct RealFlEngine::WeightedUpdate {
  size_t client_id = 0;
  std::vector<float> params;
  double weight = 0.0;
};

// One selected client's round. Phase 2 fills in the update it trained, the
// server's validation verdict on it and its transfer; phase 3 the server's
// ruling.
struct RealFlEngine::Slot : CohortSlot {
  explicit Slot(const CohortSlot& decided) : CohortSlot(decided) {}
  ProcessedUpdate upload;
  bool valid = false;
  TransferResult transfer;
  // Salvage (DESIGN.md §16): the completed fraction of the local work of an
  // interrupted client, or the acked fraction of a timed-out upload, with
  // the steps and upload bytes behind it. 0 when nothing is salvageable.
  // From min_progress on, `upload` holds the partial and `valid` its
  // verdict.
  double partial_fraction = 0.0;
  size_t partial_steps = 0;
  double partial_acked_mb = 0.0;
  DropoutReason reason = DropoutReason::kNone;
  bool participated = false;
};

RealFlEngine::RealFlEngine(const RealFlConfig& config)
    : ServerCore(Validated(config).seed, config.num_clients, config.num_threads, config.faults,
                 config.guard, config.topology, config.admission, nullptr),
      config_(config),
      aggregator_(MakeAggregator(config.aggregator)),
      edge_aggregator_(MakeAggregator(config.topology.edge_aggregator)),
      rng_(config.seed),
      client_stream_root_(config.seed ^ 0x7C159E3779B97F4AULL),
      model_dims_(ModelDims(config)),
      init_skip_(Mlp::InitDraws(model_dims_)) {
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

void RealFlEngine::ProcessUpload(TechniqueKind technique, ProcessedUpdate& upload) {
  std::vector<float>& params = upload.params;
  switch (technique) {
    case TechniqueKind::kQuant16:
    case TechniqueKind::kQuant8: {
      const int bits = QuantizationBits(technique);
      upload.upload_bytes = QuantizedByteSize(params.size(), bits);
      upload.max_error = QuantizeDequantize(params, bits);
      return;
    }
    case TechniqueKind::kPrune25:
    case TechniqueKind::kPrune50:
    case TechniqueKind::kPrune75: {
      float largest_zeroed = 0.0f;
      MagnitudePrune(params, PruningFraction(technique), largest_zeroed);
      upload.upload_bytes = SparseEncodingBytes(params);
      upload.max_error = largest_zeroed;
      return;
    }
    case TechniqueKind::kCompressLossless: {
      // Quantize to 16 bits (near-lossless) then RLE-compress the codes,
      // falling back to the raw codes when the payload is incompressible
      // (dense weight noise) — as any real sender would. Only the size of
      // the compressed codes is needed, so their runs are counted as the
      // codes go by.
      RleRuns runs;
      size_t compressed = 0;
      const auto count = [&compressed](uint8_t, uint8_t) { compressed += kRleBytesPerRun; };
      upload.max_error = QuantizeDequantize(params, 16, [&](uint32_t code) {
        runs.Push(static_cast<uint8_t>(code & 0xFF), count);
        runs.Push(static_cast<uint8_t>(code >> 8), count);
      });
      runs.Finish(count);
      upload.upload_bytes = std::min(compressed, params.size() * 2) + sizeof(float) * 2;
      return;
    }
    case TechniqueKind::kNone:
    case TechniqueKind::kPartial25:
    case TechniqueKind::kPartial50:
    case TechniqueKind::kPartial75:
    default:
      // Partial training changes what gets *trained*, not the serialization.
      upload.upload_bytes = params.size() * sizeof(float);
      upload.max_error = 0.0;
      return;
  }
}

RealRoundStats RealFlEngine::RunRound(
    const std::function<TechniqueKind(size_t)>& choose_technique) {
  return RunRoundImpl(choose_technique, nullptr);
}

double RealFlEngine::SampleWeight(size_t client_id) const {
  return static_cast<double>(shards_[client_id].total);
}

void RealFlEngine::RunSlot(size_t round, const std::vector<float>& global_params,
                           Slot& slot) const {
  const size_t id = slot.client_id;
  if (Orphaned(id)) {
    return;  // never tasked; phase 3 books the orphan
  }
  const bool interrupted = slot.fault.crash || slot.fault.blackout;
  const size_t total_steps =
      TotalLocalSteps(client_labels_[id].size(), config_.sgd.epochs, config_.sgd.batch_size);
  SgdConfig sgd = config_.sgd;
  sgd.frozen_layers = FrozenLayersFor(slot.technique);
  if (interrupted) {
    // Partial-work salvage (DESIGN.md §16): a crash-faulted client trains the
    // same shuffled batch sequence, cut short at the interruption point drawn
    // from the injector's own salted (round, client) stream and quantized to
    // whole mini-batch steps, and ships the partial. A blackout preempts: the
    // client never even started. Below min_progress the work is forfeited
    // without training.
    if (!config_.salvage.enabled || slot.fault.blackout || total_steps == 0) {
      return;
    }
    slot.partial_steps = static_cast<size_t>(injector_.InterruptionPoint(round, id) *
                                             static_cast<double>(total_steps));
    slot.partial_fraction =
        static_cast<double>(slot.partial_steps) / static_cast<double>(total_steps);
    if (slot.partial_steps == 0 || slot.partial_fraction < config_.salvage.min_progress) {
      return;
    }
    sgd.max_steps = slot.partial_steps;
  }
  // Each client trains on its own (round, client_id)-keyed RNG stream, so the
  // trained weights do not depend on which thread, or in which order, clients
  // run. The local model is a copy of the global one; SGD draws start past a
  // fresh model's init draws, the stream positions the recorded goldens were
  // made with.
  Rng client_rng = client_stream_root_.ForkKeyed(Rng::StreamKey(round, id));
  Mlp local = *global_;
  client_rng.Discard(init_skip_);
  TrainSgd(local, client_inputs_[id], client_labels_[id], sgd, client_rng);
  std::vector<float>& params = slot.upload.params;
  local.GetParameters(params);
  ProcessUpload(slot.technique, slot.upload);
  if (slot.fault.corrupt) {
    PoisonParams(params, slot.fault.corrupt_kind, config_.faults.corrupt_scale);
  } else if (slot.fault.byzantine) {
    ApplyByzantineAttack(params, global_params, config_.faults.byzantine_mode,
                         config_.faults.byzantine_scale, injector_.AttackRng(round, id));
  }
  if (interrupted) {
    // Progress normalization (DESIGN.md §16): a truncated run's delta is
    // roughly `fraction` of a full epoch's, so averaging the raw partial into
    // FedAvg drags the round's step back toward the stale global. Extrapolate
    // the delta to full-epoch scale — bounded by 1 / min_progress — and let
    // the samples x fraction aggregation weight carry the reduced trust
    // instead. The partial is recovered from the crashed client's last
    // report; no upload transfer happens on its behalf.
    const float inv_fraction = static_cast<float>(1.0 / slot.partial_fraction);
    for (size_t j = 0; j < params.size(); ++j) {
      params[j] = global_params[j] + (params[j] - global_params[j]) * inv_fraction;
    }
  } else if (transport_.enabled()) {
    // Lossy upload delivery over the *actual* serialized size, so heavier
    // uploads chunk into more loss draws. The engine has no wall clock;
    // TryDeliver charges bytes and retries, not time. (round, id)-keyed, so
    // thread order is irrelevant.
    const double payload_mb = slot.upload.UploadMb();
    slot.transfer = transport_.TryDeliver(round, id, payload_mb, TransferLeg::kUpload,
                                          config_.faults.resumable_uploads);
    if (!slot.transfer.delivered) {
      // Prefix-patch salvage (DESIGN.md §16): the acked byte prefix of the
      // serialized upload is real trained data; the rest of the partial is
      // the round's starting global parameters, and it is weighted by the
      // acked fraction. Training finished in full; only the transfer was cut
      // short.
      if (!config_.salvage.enabled) {
        return;
      }
      slot.partial_fraction =
          payload_mb > 0.0 ? std::min(1.0, slot.transfer.progress_mb / payload_mb) : 0.0;
      if (slot.partial_fraction < config_.salvage.min_progress) {
        return;
      }
      slot.partial_steps = total_steps;
      slot.partial_acked_mb = slot.transfer.progress_mb;
      const size_t prefix = std::min(
          params.size(), static_cast<size_t>(slot.partial_fraction *
                                             static_cast<double>(params.size())));
      std::copy(global_params.begin() + static_cast<std::ptrdiff_t>(prefix), global_params.end(),
                params.begin() + static_cast<std::ptrdiff_t>(prefix));
    }
  }
  // Server-side validation (every value finite, the L2 norm under the
  // quarantine threshold) of the update as it would enter aggregation, so a
  // poisoned partial is quarantined at that amplitude; phase 3 only reads the
  // verdict.
  slot.valid = ValidRealUpdate(params, config_.faults.reject_norm_threshold);
}

std::vector<size_t> RealFlEngine::SlotsByWork(const std::vector<Slot>& slots) const {
  // Each layer's forward product, plus the two backward products of each
  // trained one, per sample.
  const size_t layers = global_->NumLayers();
  std::vector<size_t> work(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    const size_t trained = layers - FrozenLayersFor(slots[i].technique);
    work[i] = shards_[slots[i].client_id].total * (layers + 2 * trained);
  }
  std::vector<size_t> order(slots.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&work](size_t a, size_t b) { return work[a] > work[b]; });
  return order;
}

std::vector<float> RealFlEngine::Reduce(Aggregator& aggregator,
                                        std::vector<WeightedUpdate>& updates,
                                        const std::vector<float>& global, AggregatorStats* stats,
                                        double* total_weight) {
  std::vector<std::vector<float>> params;
  std::vector<double> weights;
  params.reserve(updates.size());
  weights.reserve(updates.size());
  for (WeightedUpdate& update : updates) {
    params.push_back(std::move(update.params));
    weights.push_back(update.weight);
    if (total_weight != nullptr) {
      *total_weight += update.weight;
    }
  }
  std::vector<float> reduced = aggregator.Aggregate(params, weights, global, stats, pool_.get());
  for (std::vector<float>& buffer : params) {
    if (spare_params_.size() == config_.clients_per_round) {
      break;
    }
    spare_params_.push_back(std::move(buffer));
  }
  return reduced;
}

RealRoundStats RealFlEngine::RunRoundImpl(
    const std::function<TechniqueKind(size_t)>& choose_technique,
    const std::function<void(size_t, TechniqueKind, bool, double)>& report) {
  const std::vector<float> global_params = global_->GetParameters();
  const std::vector<size_t> order = rng_.Permutation(shards_.size());
  const size_t k = std::min(config_.clients_per_round, shards_.size());
  const size_t round = rounds_run_++;
  const std::vector<EdgeFaultDecision> edge_decisions = BeginRound(round);
  // The round's tree counters are read off the shared tracker.
  const TopologyTracker topo_before = topo_tracker_;
  // Round-start test accuracy, the baseline for the policy's accuracy
  // credit. Only needed when someone consumes the credit. The global model
  // is the one the previous round ended with, so that round's accuracy is
  // reused when this engine ran it.
  const std::optional<double> carried = std::exchange(round_end_accuracy_, std::nullopt);
  const double accuracy_before = !report ? 0.0 : carried ? *carried : EvaluateAccuracy();

  // Phase 1 (sequential): technique choices — the callback may be stateful —
  // and fault draws. The engine has no wall clock; the round index stands in
  // for time, so blackout windows are in round units.
  const std::vector<CohortSlot> cohort =
      DecideCohort(round, std::span<const size_t>(order.data(), k), static_cast<double>(round),
                   [&](size_t i) { return choose_technique(order[i]); });
  std::vector<Slot> slots(cohort.begin(), cohort.end());

  // Phase 2 (parallel): each task writes only its own slot, into a
  // parameter buffer an earlier reduction left behind when there is one.
  // The largest tasks start first, so the longest client does not start
  // last.
  for (Slot& s : slots) {
    if (spare_params_.empty()) {
      break;
    }
    s.upload.params = std::move(spare_params_.back());
    spare_params_.pop_back();
  }
  const std::vector<size_t> by_work = SlotsByWork(slots);
  ParallelFor(pool_.get(), k,
              [&](size_t j) { RunSlot(round, global_params, slots[by_work[j]]); });

  // Phase 3 (sequential, selection order): the server's ruling on each slot,
  // then a fixed-order reduction through the configured aggregator.
  RealRoundStats stats;
  std::vector<size_t> passing;  // slots whose upload reached the server door
  std::vector<size_t> partial_slots;
  std::vector<PartialArrival> partial_arrivals;
  for (size_t i = 0; i < k; ++i) {
    Slot& s = slots[i];
    if (s.fault.byzantine) {
      ++stats.byzantine_selected;
    }
    const bool orphaned = Orphaned(s.client_id);
    BookTreeSlot(s.client_id, orphaned);
    if (orphaned) {
      s.reason = DropoutReason::kEdgeOrphaned;
      continue;
    }
    if (s.fault.crash || s.fault.blackout) {
      ++stats.crashed;
      s.reason = s.fault.blackout ? DropoutReason::kUnavailable : DropoutReason::kCrashed;
    } else if (transport_.enabled()) {
      const TransferResult& t = s.transfer;
      transport_tracker_.Record(t.attempts, t.wire_mb, t.retransmitted_mb, t.salvaged_mb,
                                t.progress_mb, t.backoff_s, t.timed_out);
      stats.retransmitted_mb += t.retransmitted_mb;
      stats.salvaged_mb += t.salvaged_mb;
      if (!t.delivered) {
        // The trained update never survived the lossy link intact.
        ++stats.transfer_timeouts;
        s.reason = DropoutReason::kTransferTimedOut;
      }
    }
    if (s.reason == DropoutReason::kNone) {
      if (s.valid) {
        passing.push_back(i);
      } else {
        ++stats.rejected_updates;
        s.reason = DropoutReason::kCorrupted;
      }
      continue;
    }
    // The client is a dropout either way (the guard and the policy see it as
    // one); salvage only decides whether its partial work survives.
    if (s.partial_fraction <= 0.0) {
      continue;
    }
    if (s.partial_fraction < config_.salvage.min_progress) {
      ++stats.partials_below_min;
      ++salvage_tracker_.partials_below_min;
    } else if (!s.valid) {
      ++stats.partials_rejected;
      ++salvage_tracker_.partials_rejected;
    } else {
      partial_arrivals.push_back({.arrival = {.client_id = s.client_id,
                                              .round = round,
                                              .attempt = kPartialUpdateAttempt,
                                              .utility = SampleWeight(s.client_id)},
                                  .fraction = s.partial_fraction,
                                  .steps = s.partial_steps,
                                  .acked_mb = s.partial_acked_mb});
      partial_slots.push_back(i);
    }
  }
  std::vector<WeightedUpdate> updates;
  std::vector<size_t> accepted;  // slots whose fresh upload the server took, in order
  // This round's admission counters, folded into the run's totals once both
  // of its bursts (fresh uploads, then partials) have been ruled on.
  AdmissionTracker round_admission;
  if (!IngestionOn()) {
    accepted = passing;
    for (size_t i : passing) {
      updates.push_back(
          {slots[i].client_id, std::move(slots[i].upload.params), SampleWeight(slots[i].client_id)});
    }
  } else {
    // Server ingestion (DESIGN.md §15): the round's validated uploads form
    // one ingestion burst — possibly reordered, duplicated, and joined by
    // replays of earlier accepted uploads — and the admission gate rules on
    // it in arrival order. An admitted redundant delivery is re-processed in
    // full: its parameter vector re-enters the FedAvg reduction and its wire
    // volume is booked as redundant; a doorstep rejection costs nothing.
    std::vector<AdmissionController::Arrival> arrivals(passing.size());
    for (size_t j = 0; j < passing.size(); ++j) {
      arrivals[j].client_id = slots[passing[j]].client_id;
      arrivals[j].round = round;
      // Utility-priority shedding keeps the data-rich uploads.
      arrivals[j].utility = SampleWeight(arrivals[j].client_id);
    }
    AdmitBurst(
        round, arrivals, std::span<const size_t>(order.data(), k), &LoggedUpload::weight,
        &round_admission,
        [&](const IngressDelivery& d, const AdmissionController::Verdict& v) {
          const bool replay = d.kind == IngressDelivery::Kind::kReplay;
          const size_t i = replay ? d.source : passing[d.source];
          const Slot& s = slots[i];
          if (!v.admitted) {
            if (d.kind == IngressDelivery::Kind::kFresh) {
              slots[i].reason = v.reason;
            } else if (report) {
              // A doorstep-rejected redundant still costs the policy one
              // participated=false report — the delivery happened, the
              // server just refused to process it.
              report(s.client_id, s.technique, false, 0.0);
            }
            return;
          }
          ++stats.admitted;
          if (d.kind == IngressDelivery::Kind::kFresh) {
            accepted.push_back(i);
          } else {
            stats.redundant_upload_mb += replay ? d.logged->upload_mb : s.upload.UploadMb();
          }
          // Copies, not moves: duplicates of this upload may still arrive.
          updates.push_back(
              {s.client_id, replay ? d.logged->params : s.upload.params,
               (replay ? d.logged->weight : SampleWeight(s.client_id)) * v.weight});
        },
        [&](size_t j) {
          Slot& s = slots[passing[j]];
          LoggedUpload entry;
          entry.upload_mb = s.upload.UploadMb();
          entry.technique = static_cast<uint32_t>(s.technique);
          entry.params = std::move(s.upload.params);
          entry.weight = SampleWeight(s.client_id);
          return entry;
        });
    // Each refusal records one count, and the round's tracker holds only
    // this burst so far.
    stats.deduplicated = round_admission.deduplicated;
    stats.shed = round_admission.shed;
    stats.rate_limited = round_admission.rate_limited;
    stats.replay_rejected = round_admission.replay_rejected;
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
    updates.push_back({p.arrival.client_id, std::move(slots[partial_slots[n]].upload.params),
                       SampleWeight(p.arrival.client_id) * p.fraction *
                           partial_verdicts[n].weight});
  }
  stats.peak_queue_depth = round_admission.peak_queue_depth;
  admission_tracker_.Merge(round_admission);
  // The round's participants are the accepted fresh uploads, and its means
  // are over them, in the order the server took them.
  double total_bytes = 0.0;
  double total_error = 0.0;
  for (size_t i : accepted) {
    slots[i].participated = true;
    total_bytes += static_cast<double>(slots[i].upload.upload_bytes);
    total_error += slots[i].upload.max_error;
  }
  stats.participants = accepted.size();
  stats.mean_upload_bytes = stats.participants == 0 ? 0.0 : total_bytes / stats.participants;
  stats.mean_update_error = stats.participants == 0 ? 0.0 : total_error / stats.participants;
  // Failure attribution for the guard's quarantine (selection order).
  for (const Slot& s : slots) {
    guard_.Observe(s.technique, s.participated, s.reason, round);
  }

  // Edge tier (DESIGN.md §13) in parameter space: each edge folds its cohort
  // into one partial weighted by the cohort's sample total, so the root
  // aggregates partials instead of raw client updates.
  const EdgeRule<WeightedUpdate> edge_rule{
      .fold =
          [&](std::vector<WeightedUpdate> members, AggregatorStats* edge_stats) {
            std::vector<WeightedUpdate> partial(1);
            partial[0].params = Reduce(*edge_aggregator_, members, global_params, edge_stats,
                                       &partial[0].weight);
            return partial;
          },
      .tamper =
          [&](WeightedUpdate& partial, size_t edge) {
            ApplyByzantineAttack(partial.params, global_params,
                                 config_.topology.edge_byzantine_mode,
                                 config_.topology.edge_byzantine_scale,
                                 edge_injector_.AttackRng(round, edge));
          },
      .valid =
          [this](const WeightedUpdate& partial) {
            return ValidRealUpdate(partial.params, config_.faults.reject_norm_threshold);
          },
      // No clock, so no root patience: edge_overcommit and
      // edge_adaptive_deadline do not apply here.
      .patience = nullptr,
  };
  const double coverage = AggregateEdges(
      round, edge_decisions, static_cast<double>(DenseUpdateBytes()) / (1024.0 * 1024.0),
      edge_rule, updates);
  stats.orphaned = topo_tracker_.orphaned_clients - topo_before.orphaned_clients;
  stats.reparented = topo_tracker_.reparented_clients - topo_before.reparented_clients;
  stats.partials_lost = topo_tracker_.partials_lost - topo_before.partials_lost;
  stats.tampered_partials = topo_tracker_.tampered_partials - topo_before.tampered_partials;
  stats.tampered_rejections =
      topo_tracker_.tampered_rejections - topo_before.tampered_rejections;

  AggregatorStats agg_stats;
  if (!updates.empty()) {
    global_->SetParameters(Reduce(*aggregator_, updates, global_params, &agg_stats, nullptr));
  }
  agg_tracker_.Record(stats.byzantine_selected, agg_stats);
  stats.updates_clipped = agg_stats.updates_clipped;
  stats.krum_rejections = agg_stats.krum_rejections;
  stats.updates_trimmed = agg_stats.updates_trimmed;
  Mlp::Evaluation eval = EvaluateTestSet();
  stats.test_accuracy = eval.accuracy;
  stats.test_loss = eval.loss;

  // Policy feedback: every selected client reports, dropouts included.
  if (report) {
    const double accuracy_delta = stats.test_accuracy - accuracy_before;
    for (const Slot& s : slots) {
      report(s.client_id, s.technique, s.participated, PolicyCredit(accuracy_delta, s.technique));
    }
  }

  // Self-healing hook (DESIGN.md §11): snapshot the global model when the
  // test metrics are healthy; restore the last known good one when they
  // diverge. Runs after the policy feedback so the rollback also discards
  // any Q-updates the bad round just taught.
  if (CloseRound(round,
                 {.metric = stats.test_accuracy, .loss = stats.test_loss, .coverage = coverage},
                 [this](auto& a) {
                   ParamsIo(a, *global_, "guard snapshot model parameter count mismatch");
                 })) {
    stats.rolled_back = true;
    eval = EvaluateTestSet();
    stats.test_accuracy = eval.accuracy;
    stats.test_loss = eval.loss;
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

template <typename Self, typename Archive>
void RealFlEngine::Fields(Self& self, Archive& a) {
  Io(a, self.rounds_run_, self.rng_, self.client_stream_root_);
  ParamsIo(a, *self.global_, "checkpoint model parameter count mismatch");
  Io(a, self.injector_, self.aggregator_, self.agg_tracker_, self.transport_tracker_);
  PolicyIo(self, a, "checkpoint policy presence mismatch");
  Io(a, self.guard_);
  EdgeTierIo(self, a);
  Io(a, self.edge_aggregator_);
  IngressIo(self, a);
  Io(a, self.salvage_tracker_);
  // The RecoveryTracker stays the final section of every engine payload:
  // the recovery tests strip it off the tail to compare training state.
  Io(a, self.recovery_tracker_);
}

void RealFlEngine::SaveState(CheckpointWriter& w) const { Fields(*this, w); }

void RealFlEngine::LoadState(CheckpointReader& r) {
  round_end_accuracy_.reset();
  Fields(*this, r);
}

}  // namespace floatfl
