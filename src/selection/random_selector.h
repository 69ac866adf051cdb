// FedAvg's client selection: uniformly random K clients per round, with no
// regard for availability or resources (McMahan et al. [49]) — unbiased but
// dropout-prone, exactly the behaviour Figures 2a and 12 rely on.
#ifndef SRC_SELECTION_RANDOM_SELECTOR_H_
#define SRC_SELECTION_RANDOM_SELECTOR_H_

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/selection/selector.h"

namespace floatfl {

class RandomSelector final : public Selector {
 public:
  explicit RandomSelector(uint64_t seed);

  std::vector<size_t> Select(size_t round, double now_s, size_t k,
                             std::vector<Client>& clients) override;
  std::string Name() const override { return "fedavg"; }

  void SaveState(CheckpointWriter& w) const override { Io(w, rng_); }
  void LoadState(CheckpointReader& r) override { Io(r, rng_); }

 private:
  Rng rng_;
};

}  // namespace floatfl

#endif  // SRC_SELECTION_RANDOM_SELECTOR_H_
