#include "src/core/state_encoder.h"

#include "src/common/check.h"

namespace floatfl {
namespace {

// Table-1 fixed ranges, expressed over fractional availabilities in [0, 1].
// CPU/MEM: None (0), Low (1-20 %), Moderate (21-40 %), High (41-60 %),
// Very High (61-80+ %). Network starts at Low (there is no "no network
// selected client"). Deadline difference: None (0), <10 %, <20 %, <30 %,
// >=30 %.
Discretizer DefaultCpuMemBins(size_t bins) {
  if (bins == 5) {
    return Discretizer({0.005, 0.205, 0.405, 0.605});
  }
  return Discretizer::Uniform(0.0, 1.0, bins);
}

Discretizer DefaultNetBins(size_t bins) {
  if (bins == 5) {
    return Discretizer({0.205, 0.405, 0.605, 0.805});
  }
  return Discretizer::Uniform(0.0, 1.0, bins);
}

Discretizer DefaultDeadlineBins(size_t bins) {
  if (bins == 5) {
    return Discretizer({0.001, 0.10, 0.20, 0.30});
  }
  return Discretizer::Uniform(0.0, 0.5, bins);
}

}  // namespace

StateEncoder::StateEncoder(const StateEncoderConfig& config)
    : config_(config),
      cpu_bins_(DefaultCpuMemBins(config.resource_bins)),
      mem_bins_(DefaultCpuMemBins(config.resource_bins)),
      net_bins_(DefaultNetBins(config.resource_bins)),
      deadline_bins_(DefaultDeadlineBins(config.resource_bins)),
      batch_bins_(Discretizer({7.5, 31.5})),        // small <8, medium 8-31, large >=32
      epoch_bins_(Discretizer({4.5, 9.5})),         // small <5, medium 5-9, large >=10
      participant_bins_(Discretizer({9.5, 49.5})),  // small <10, medium 10-49, large >=50
      num_states_(0) {
  FLOATFL_CHECK(config.resource_bins >= 2);
  RecomputeNumStates();
}

void StateEncoder::RecomputeNumStates() {
  size_t n = cpu_bins_.NumBins() * mem_bins_.NumBins() * net_bins_.NumBins();
  if (config_.include_human_feedback) {
    n *= deadline_bins_.NumBins();
  }
  if (config_.include_global) {
    n *= batch_bins_.NumBins() * epoch_bins_.NumBins() * participant_bins_.NumBins();
  }
  num_states_ = n;
}

size_t StateEncoder::Encode(const ClientObservation& client,
                            const GlobalObservation& global) const {
  size_t idx = cpu_bins_.BinOf(client.cpu_avail);
  idx = idx * mem_bins_.NumBins() + mem_bins_.BinOf(client.mem_avail);
  idx = idx * net_bins_.NumBins() + net_bins_.BinOf(client.net_avail);
  if (config_.include_human_feedback) {
    idx = idx * deadline_bins_.NumBins() + deadline_bins_.BinOf(client.deadline_diff);
  }
  if (config_.include_global) {
    idx = idx * batch_bins_.NumBins() +
          batch_bins_.BinOf(static_cast<double>(global.batch_size));
    idx = idx * epoch_bins_.NumBins() + epoch_bins_.BinOf(static_cast<double>(global.epochs));
    idx = idx * participant_bins_.NumBins() +
          participant_bins_.BinOf(static_cast<double>(global.participants));
  }
  FLOATFL_CHECK(idx < num_states_);
  return idx;
}

void StateEncoder::FitResourceBins(const std::vector<double>& cpu_samples,
                                   const std::vector<double>& mem_samples,
                                   const std::vector<double>& net_samples,
                                   const std::vector<double>& deadline_samples) {
  const size_t bins = config_.resource_bins;
  if (!cpu_samples.empty()) {
    cpu_bins_ = Discretizer::FromQuantiles(cpu_samples, bins);
  }
  if (!mem_samples.empty()) {
    mem_bins_ = Discretizer::FromQuantiles(mem_samples, bins);
  }
  if (!net_samples.empty()) {
    net_bins_ = Discretizer::FromQuantiles(net_samples, bins);
  }
  if (!deadline_samples.empty()) {
    deadline_bins_ = Discretizer::FromQuantiles(deadline_samples, bins);
  }
  RecomputeNumStates();
}

namespace {

// A discretizer is stored as its boundaries.
void BinsIo(CheckpointWriter& w, const Discretizer& bins) { Io(w, bins.boundaries()); }
void BinsIo(CheckpointReader& r, Discretizer& bins) {
  std::vector<double> boundaries;
  Io(r, boundaries);
  bins = Discretizer(std::move(boundaries));
}

}  // namespace

template <typename Self, typename Archive>
void StateEncoder::Fields(Self& self, Archive& a) {
  for (auto* bins : {&self.cpu_bins_, &self.mem_bins_, &self.net_bins_, &self.deadline_bins_,
                     &self.batch_bins_, &self.epoch_bins_, &self.participant_bins_}) {
    BinsIo(a, *bins);
  }
}

void StateEncoder::SaveState(CheckpointWriter& w) const { Fields(*this, w); }

void StateEncoder::LoadState(CheckpointReader& r) {
  Fields(*this, r);
  RecomputeNumStates();
}

}  // namespace floatfl
