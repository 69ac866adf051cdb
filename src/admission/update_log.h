// Per-client log of the last accepted upload (DESIGN.md §15).
//
// The overload injector's replay fault re-delivers a client's most recent
// accepted upload — exactly what a retransmit buffer would hold. The log
// keeps one entry per client: the round it was accepted at, the
// quality-space contribution (surrogate engines) or parameter vector +
// FedAvg weight (real engine), and the delivery cost a redundant
// re-processing of it charges. Populated only while overload faults are
// active; serialized with the engine so replays are bit-exact across
// resumes.
#ifndef SRC_ADMISSION_UPDATE_LOG_H_
#define SRC_ADMISSION_UPDATE_LOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct LoggedUpload {
  bool valid = false;
  uint64_t round = 0;
  // Launch count at upload time — the dedup key's attempt component, so a
  // replay within the dedup window folds onto the original's key.
  uint64_t attempt = 0;
  double quality = 0.0;
  // Redundant-delivery processing cost: the upload leg's comm seconds and
  // wire MB, charged as waste when an unguarded server re-processes it.
  double upload_comm_s = 0.0;
  double upload_mb = 0.0;
  uint32_t technique = 0;
  // Real engine only: the accepted parameter vector and its FedAvg weight.
  std::vector<float> params;
  double weight = 0.0;

  // An invalid entry stores its flag alone.
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.valid);
    if (self.valid) {
      Io(a, self.round, self.attempt, self.quality, self.upload_comm_s, self.upload_mb,
         self.technique, self.params, self.weight);
    }
  }
};

class UpdateLog {
 public:
  UpdateLog() = default;
  explicit UpdateLog(size_t num_clients) : entries_(num_clients) {}

  void Record(size_t client_id, LoggedUpload entry) {
    entry.valid = true;
    entries_[client_id] = std::move(entry);
  }

  // The client's last accepted upload, or nullptr if it never had one.
  const LoggedUpload* Get(size_t client_id) const {
    const LoggedUpload& e = entries_[client_id];
    return e.valid ? &e : nullptr;
  }

  size_t size() const { return entries_.size(); }

  void SaveState(CheckpointWriter& w) const { IoFixed(w, entries_, kMismatch); }
  void LoadState(CheckpointReader& r) { IoFixed(r, entries_, kMismatch); }

 private:
  static constexpr const char* kMismatch = "checkpoint update log population mismatch";

  std::vector<LoggedUpload> entries_;
};

}  // namespace floatfl

#endif  // SRC_ADMISSION_UPDATE_LOG_H_
