// Real magnitude pruning of model parameters.
#ifndef SRC_OPT_PRUNE_H_
#define SRC_OPT_PRUNE_H_

#include <cstddef>
#include <vector>

namespace floatfl {

// Zeroes the `fraction` of entries with smallest |value|. Returns the number
// of entries zeroed. fraction in [0, 1].
size_t MagnitudePrune(std::vector<float>& values, double fraction);

// The same pruning; `largest_zeroed` receives the largest |value| it zeroed
// (0 when it zeroed nothing), which is the max absolute error it injected.
size_t MagnitudePrune(std::vector<float>& values, double fraction, float& largest_zeroed);

// Sparse (index, value) encoding size in bytes for a pruned vector, the
// serialization a pruned update would ship (4-byte index + 4-byte value per
// survivor). Used to validate the pruning comm-cost multipliers.
size_t SparseEncodingBytes(const std::vector<float>& values);

}  // namespace floatfl

#endif  // SRC_OPT_PRUNE_H_
