#include "src/fl/vfl_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/data/synthetic.h"
#include "src/fl/experiment.h"
#include "src/opt/quantize.h"

namespace floatfl {
namespace {

// Splits a full-feature sample matrix into per-party column slices.
std::vector<Tensor> SliceByParty(const Tensor& full, size_t parties, size_t per_party) {
  std::vector<Tensor> slices;
  slices.reserve(parties);
  for (size_t p = 0; p < parties; ++p) {
    Tensor slice(full.rows(), per_party);
    for (size_t r = 0; r < full.rows(); ++r) {
      for (size_t c = 0; c < per_party; ++c) {
        slice.At(r, c) = full.At(r, p * per_party + c);
      }
    }
    slices.push_back(std::move(slice));
  }
  return slices;
}

// A party is silent for the epoch: unreachable (blackout) or its process
// died (crash). Its embedding slice stays zero and its encoder skips the
// epoch.
bool PartySilent(const FaultDecision& fault) { return fault.crash || fault.blackout; }

bool AllFinite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) {
      return false;
    }
  }
  return true;
}

// The split model: each party's encoder, then the top classifier. A layer is
// its weights and bias, read back only at its own shape.
template <typename Archive, typename Bottoms, typename Top>
void SplitModelIo(Archive& a, Bottoms& bottoms, Top& top) {
  const auto layer_io = [&a](auto& layer) {
    IoFixed(a, layer.weights().flat(), "checkpoint VFL layer shape mismatch");
    IoFixed(a, layer.bias().flat(), "checkpoint VFL layer shape mismatch");
  };
  for (auto& bottom : bottoms) {
    layer_io(bottom);
  }
  layer_io(top);
}

// `config` once every field the engine builds from is in range, so the
// constructor refuses a config it cannot run, naming the field, before it
// builds anything.
const VflConfig& Validated(const VflConfig& config) {
  FLOATFL_CHECK_MSG(config.num_parties >= 2, "num_parties must be at least 2");
  FLOATFL_CHECK_MSG(config.features_per_party > 0, "features_per_party must be positive");
  // TrainEpoch steps through the data batch_size rows at a time.
  FLOATFL_CHECK_MSG(config.batch_size > 0, "batch_size must be positive");
  ValidateFaultConfig(config.faults);
  ValidateGuardConfig(config.guard);
  return config;
}

}  // namespace

VflEngine::VflEngine(const VflConfig& config)
    : config_(Validated(config)),
      injector_(config.faults, config.seed, config.num_parties),
      transport_(config.faults, config.seed),
      rng_(config.seed) {
  guard_ = TrainingGuard(config_.guard);

  const size_t total_features = config.num_parties * config.features_per_party;
  SyntheticTaskData task(config.num_classes, total_features, config.class_separation, rng_);

  Tensor train_full;
  task.MakeTestSet(std::max<size_t>(1, config.train_samples / config.num_classes), rng_,
                   &train_full, &train_labels_);
  Tensor test_full;
  task.MakeTestSet(std::max<size_t>(1, config.test_samples / config.num_classes), rng_,
                   &test_full, &test_labels_);
  train_features_ = SliceByParty(train_full, config.num_parties, config.features_per_party);
  test_features_ = SliceByParty(test_full, config.num_parties, config.features_per_party);

  bottoms_.reserve(config.num_parties);
  for (size_t p = 0; p < config.num_parties; ++p) {
    bottoms_.emplace_back(config.features_per_party, config.embedding_dim, /*relu=*/true, rng_);
  }
  top_ = std::make_unique<DenseLayer>(config.num_parties * config.embedding_dim,
                                      config.num_classes, /*relu=*/false, rng_);
}

Tensor VflEngine::ForwardParties(const std::vector<Tensor>& inputs, size_t start, size_t count,
                                 TechniqueKind technique, double* traffic_bytes,
                                 const std::vector<FaultDecision>* faults) {
  const size_t embed = config_.embedding_dim;
  Tensor concat(count, bottoms_.size() * embed);
  const int bits = QuantizationBits(technique);
  for (size_t p = 0; p < bottoms_.size(); ++p) {
    if (faults != nullptr && PartySilent((*faults)[p])) {
      // Nothing arrives from a silent party: the server trains on a
      // zero-filled slice and no traffic is charged.
      continue;
    }
    Tensor slice(count, inputs[p].cols());
    for (size_t r = 0; r < count; ++r) {
      for (size_t c = 0; c < inputs[p].cols(); ++c) {
        slice.At(r, c) = inputs[p].At(start + r, c);
      }
    }
    Tensor embedding = bottoms_[p].Forward(slice);
    if (bits < 32) {
      // Party quantizes its embedding before sending it to the server.
      if (traffic_bytes != nullptr) {
        *traffic_bytes += static_cast<double>(QuantizedByteSize(embedding.size(), bits));
      }
      QuantizeDequantize(embedding.flat(), bits);
    } else if (traffic_bytes != nullptr) {
      *traffic_bytes += static_cast<double>(embedding.size() * sizeof(float));
    }
    if (faults != nullptr && (*faults)[p].corrupt) {
      // The corrupted upload still ships (and was charged above), but what
      // arrives is garbage.
      std::fill(embedding.flat().begin(), embedding.flat().end(),
                std::numeric_limits<float>::quiet_NaN());
    }
    if (faults != nullptr && !AllFinite(embedding.flat())) {
      // Server-side validation: a non-finite embedding is quarantined — the
      // slice stays zero, exactly as if the party were silent.
      continue;
    }
    for (size_t r = 0; r < count; ++r) {
      for (size_t c = 0; c < embed; ++c) {
        concat.At(r, p * embed + c) = embedding.At(r, c);
      }
    }
  }
  return concat;
}

VflRoundStats VflEngine::TrainEpoch(TechniqueKind comm_technique) {
  VflRoundStats stats;
  const size_t n = train_labels_.size();
  const size_t embed = config_.embedding_dim;
  const size_t epoch = epochs_run_++;
  guard_.BeginRound(epoch);
  // The guard may veto the requested communication optimization (safe mode
  // or a quarantined technique) and run the epoch unoptimized.
  comm_technique = guard_.Filter(comm_technique, epoch);
  const int bits = QuantizationBits(comm_technique);
  double loss_sum = 0.0;
  size_t batches = 0;
  // Per-party participation verdicts for the guard's failure attribution.
  std::vector<DropoutReason> reasons(bottoms_.size(), DropoutReason::kNone);

  // Per-(epoch, party) fault draws, epoch standing in for both the round and
  // the wall clock (as in the real engine). A faulted party is out for the
  // whole epoch: silent (crash/blackout) or quarantined (corruption).
  std::vector<FaultDecision> faults;
  std::vector<uint8_t> party_out;
  size_t active_parties = bottoms_.size();
  if (injector_.enabled()) {
    injector_.BeginRound(epoch);
    faults.assign(bottoms_.size(), FaultDecision());
    party_out.assign(bottoms_.size(), 0);
    for (size_t p = 0; p < bottoms_.size(); ++p) {
      faults[p] = injector_.Decide(epoch, p, static_cast<double>(epoch));
      if (faults[p].crash || faults[p].blackout) {
        party_out[p] = 1;
        --active_parties;
        ++stats.parties_crashed;
        reasons[p] = faults[p].crash ? DropoutReason::kCrashed : DropoutReason::kUnavailable;
      } else if (faults[p].corrupt) {
        party_out[p] = 1;
        --active_parties;
        ++stats.parties_quarantined;
        reasons[p] = DropoutReason::kCorrupted;
      }
    }
  }
  if (transport_.enabled()) {
    // Lossy delivery of each surviving party's epoch-worth of embedding
    // uploads (fp32 estimate; the engine has no wall clock, so TryDeliver
    // charges bytes and retries, not time). A party whose uplink exhausts
    // its retries is silent for the epoch, exactly like a crash — modeled by
    // synthesizing a blackout decision so the forward pass zero-fills it.
    if (faults.empty()) {
      faults.assign(bottoms_.size(), FaultDecision());
      party_out.assign(bottoms_.size(), 0);
    }
    const double payload_mb = static_cast<double>(config_.train_samples) *
                              static_cast<double>(config_.embedding_dim) * sizeof(float) /
                              (1024.0 * 1024.0);
    for (size_t p = 0; p < bottoms_.size(); ++p) {
      if (party_out[p]) {
        continue;  // already silent/quarantined; nothing ships
      }
      const TransferResult transfer = transport_.TryDeliver(
          epoch, p, payload_mb, TransferLeg::kUpload, config_.faults.resumable_uploads);
      transport_tracker_.Record(transfer.attempts, transfer.wire_mb, transfer.retransmitted_mb,
                                transfer.salvaged_mb, transfer.progress_mb, transfer.backoff_s,
                                transfer.timed_out);
      stats.retransmitted_mb += transfer.retransmitted_mb;
      stats.salvaged_mb += transfer.salvaged_mb;
      if (!transfer.delivered) {
        faults[p].blackout = true;
        party_out[p] = 1;
        --active_parties;
        ++stats.parties_timed_out;
        reasons[p] = DropoutReason::kTransferTimedOut;
      }
    }
  }
  const std::vector<FaultDecision>* fault_view = faults.empty() ? nullptr : &faults;
  // The server only sends gradient slices to parties still in the epoch, so
  // the downlink leg is charged pro-rata (1.0 when nobody is out).
  const double downlink_fraction =
      static_cast<double>(active_parties) / static_cast<double>(bottoms_.size());

  for (size_t start = 0; start < n; start += config_.batch_size) {
    const size_t count = std::min(config_.batch_size, n - start);
    const Tensor concat = ForwardParties(train_features_, start, count, comm_technique,
                                         &stats.traffic_bytes, fault_view);
    const Tensor logits = top_->Forward(concat);
    const std::vector<int> batch_labels(
        train_labels_.begin() + static_cast<ptrdiff_t>(start),
        train_labels_.begin() + static_cast<ptrdiff_t>(start + count));
    Tensor probs;
    loss_sum += SoftmaxXent::Loss(logits, batch_labels, &probs);
    ++batches;

    // Server backprop to the concatenated embedding, then split the gradient
    // back to parties (the downlink leg, also quantized).
    Tensor grad_concat = top_->Backward(SoftmaxXent::Gradient(probs, batch_labels));
    top_->Step(config_.learning_rate, /*frozen=*/false);
    if (bits < 32) {
      stats.traffic_bytes +=
          downlink_fraction * static_cast<double>(QuantizedByteSize(grad_concat.size(), bits));
      QuantizeDequantize(grad_concat.flat(), bits);
    } else {
      stats.traffic_bytes +=
          downlink_fraction * static_cast<double>(grad_concat.size() * sizeof(float));
    }
    for (size_t p = 0; p < bottoms_.size(); ++p) {
      if (!party_out.empty() && party_out[p]) {
        // The server sends no gradient to a silent or quarantined party; its
        // encoder does not train this epoch.
        continue;
      }
      Tensor grad_p(count, embed);
      for (size_t r = 0; r < count; ++r) {
        for (size_t c = 0; c < embed; ++c) {
          grad_p.At(r, c) = grad_concat.At(r, p * embed + c);
        }
      }
      // The party's raw features have no gradient anyone reads.
      bottoms_[p].AccumulateGradients(std::move(grad_p));
      bottoms_[p].Step(config_.learning_rate, /*frozen=*/false);
    }
  }

  stats.train_loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
  stats.test_accuracy = EvaluateAccuracy();

  // Failure attribution (party order) and the self-healing health check
  // (DESIGN.md §11): snapshot the split model on improvement, restore the
  // last known good bottoms + top when the epoch diverges.
  for (size_t p = 0; p < bottoms_.size(); ++p) {
    guard_.Observe(comm_technique, reasons[p] == DropoutReason::kNone, reasons[p], epoch);
  }
  {
    HealthSignal health;
    health.metric = stats.test_accuracy;
    health.loss = stats.train_loss;
    const auto split_model = [this](auto& a) { SplitModelIo(a, bottoms_, *top_); };
    const bool rolled_back = guard_.EndRound(epoch, health, split_model, split_model);
    if (rolled_back) {
      stats.rolled_back = true;
      stats.test_accuracy = EvaluateAccuracy();
    }
  }
  return stats;
}

double VflEngine::EvaluateAccuracy() {
  const Tensor concat = ForwardParties(test_features_, 0, test_labels_.size(),
                                       TechniqueKind::kNone, nullptr);
  const Tensor logits = top_->Forward(concat);
  return SoftmaxXent::Accuracy(logits, test_labels_);
}

template <typename Self, typename Archive>
void VflEngine::Fields(Self& self, Archive& a) {
  Io(a, self.epochs_run_, self.rng_);
  if (IoCount(a, self.bottoms_.size(), "checkpoint VFL party count mismatch")) {
    SplitModelIo(a, self.bottoms_, *self.top_);
  }
  Io(a, self.injector_, self.transport_tracker_, self.guard_, self.recovery_tracker_);
}

void VflEngine::SaveState(CheckpointWriter& w) const { Fields(*this, w); }

void VflEngine::LoadState(CheckpointReader& r) { Fields(*this, r); }

}  // namespace floatfl
