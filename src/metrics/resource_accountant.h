// Resource accounting for the paper's inefficiency metrics (Section 6.1).
//
// Every client-round consumes computation time (hours of device training),
// communication time (hours of round-trip model transfer) and memory
// (TB held during training/storage). When the client completes, the spend is
// "useful"; when it drops out, the spend is wasted — that waste is the
// compute/communication/memory *inefficiency* reported in Figures 6, 11, 12
// and 13.
#ifndef SRC_METRICS_RESOURCE_ACCOUNTANT_H_
#define SRC_METRICS_RESOURCE_ACCOUNTANT_H_

#include <cstddef>
#include <mutex>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct ResourceTotals {
  double compute_hours = 0.0;
  double comm_hours = 0.0;
  double memory_tb = 0.0;

  ResourceTotals& operator+=(const ResourceTotals& other) {
    compute_hours += other.compute_hours;
    comm_hours += other.comm_hours;
    memory_tb += other.memory_tb;
    return *this;
  }
};

class ResourceAccountant {
 public:
  // Records one client-round. Times in seconds; memory in MB.
  //
  // Safe to call from concurrent threads (internally serialized). Note that
  // concurrent recording makes the floating-point accumulation order — and
  // therefore the low bits of the totals — scheduling-dependent; for
  // bit-for-bit reproducible totals, record in a fixed order (the engines
  // collect per-client outcomes into an index-ordered buffer and record
  // sequentially after the parallel fan-out joins). Reads must not race with
  // in-flight Record calls.
  void Record(double train_time_s, double comm_time_s, double peak_memory_mb, bool completed);

  const ResourceTotals& Useful() const { return useful_; }
  const ResourceTotals& Wasted() const { return wasted_; }

  size_t RecordedRounds() const { return records_; }

  // Checkpoint/resume. Not thread-safe; call with no in-flight Record.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.useful_.compute_hours, self.useful_.comm_hours, self.useful_.memory_tb,
       self.wasted_.compute_hours, self.wasted_.comm_hours, self.wasted_.memory_tb, self.records_);
  }

  std::mutex mu_;  // serializes Record
  ResourceTotals useful_;
  ResourceTotals wasted_;
  size_t records_ = 0;
};

}  // namespace floatfl

#endif  // SRC_METRICS_RESOURCE_ACCOUNTANT_H_
