// Flat Q-table with visit counts, persistence, and fine-tune transfer.
//
// The agent's entire learned state is (num_states x num_actions) doubles
// plus visit counts, which is what keeps FLOAT's memory overhead under
// 0.2 MB at the paper's 125-state / 8-action operating point (Figure 8) and
// what makes pre-train -> fine-tune transfer (Figure 9) a simple copy.
#ifndef SRC_CORE_Q_TABLE_H_
#define SRC_CORE_Q_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class Rng;

class QTable {
 public:
  // Values initialized uniformly in [0, init_scale) (Algorithm 1 starts from
  // random Q values); pass init_scale = 0 for a zero table.
  QTable(size_t num_states, size_t num_actions, Rng& rng, double init_scale = 0.01);

  size_t num_states() const { return num_states_; }
  size_t num_actions() const { return num_actions_; }

  double Q(size_t state, size_t action) const;
  void SetQ(size_t state, size_t action, double value);
  uint32_t Visits(size_t state, size_t action) const;
  void AddVisit(size_t state, size_t action);

  // Action with the largest Q in `state` (lowest index wins ties).
  size_t BestAction(size_t state) const;
  double MaxQ(size_t state) const;
  // Least-visited action in `state` (balanced exploration, RQ6).
  size_t LeastVisitedAction(size_t state) const;

  // Approximate resident size of the learned state, bytes.
  size_t MemoryBytes() const;

  // Copies Q values (not visit counts) from a pre-trained table; shapes must
  // match. Visit counts reset so fine-tuning re-explores cheaply.
  void InitializeFrom(const QTable& pretrained);

  // Text persistence. Returns false on I/O failure or shape mismatch.
  bool Save(const std::string& path) const;
  bool Load(const std::string& path);

  // Binary checkpoint of the learned values and visit counts; the shape is
  // rebuilt from config at construction, so only the payload is stored.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    IoFixed(a, self.q_, "checkpoint Q-table shape mismatch");
    IoFixed(a, self.visits_, "checkpoint Q-table shape mismatch");
  }

  size_t Index(size_t state, size_t action) const;

  size_t num_states_;
  size_t num_actions_;
  std::vector<double> q_;
  std::vector<uint32_t> visits_;
};

}  // namespace floatfl

#endif  // SRC_CORE_Q_TABLE_H_
