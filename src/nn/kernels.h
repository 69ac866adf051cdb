// The three matrix products behind Tensor and the sum of squares behind the
// real engine's update check, compiled once per x86-64 level (baseline, v3,
// v4) and picked at run time from the CPU.
//
// Every product variant computes each output with the same IEEE
// single-precision multiplies and adds, in the same order, as the plain
// loops they replaced, so the result is bit-identical whichever variant runs
// (DESIGN.md §12). Only the number of outputs in flight differs: each variant
// keeps as many outputs in vector registers as its register width holds.
// The sum of squares is the one kernel whose bits depend on the level; only
// the verdict built on it, FiniteWithNormAtMost, is exact.
#ifndef SRC_NN_KERNELS_H_
#define SRC_NN_KERNELS_H_

#include <cstddef>

namespace floatfl {

struct Kernels {
  const char* name;
  // out (rows x cols) = a (rows x depth) * b (depth x cols). Each output adds
  // a[i][k] * b[k][j] in k order to +0.0f and skips every k with
  // a[i][k] == 0, so a zero input adds nothing, not even 0 * inf. k runs in
  // L1-sized tiles of b with every row inside each tile; an output keeps its
  // partial sum in `out` between tiles.
  void (*mat_mul)(const float* a, const float* b, float* out, size_t rows, size_t depth,
                  size_t cols);
  // out (depth x cols) += a^T * b for a (batch x depth) and b (batch x cols).
  // Each output adds a[k][i] * b[k][j] in k order onto its old value and
  // skips every k with a[k][i] == 0, so a zero input leaves -0.0, inf and NaN
  // outputs alone.
  void (*add_transposed_mat_mul)(const float* a, const float* b, float* out, size_t batch,
                                 size_t depth, size_t cols);
  // out (rows x outputs) = a (rows x depth) * b^T for b (outputs x depth).
  // Each output adds a[i][k] * b[j][k] in k order to +0.0f, zeros included.
  void (*mat_mul_transposed)(const float* a, const float* b, float* out, size_t rows,
                             size_t depth, size_t outputs);
  // The sum of x[i]^2 over i < n in double, in four vectors of the level's
  // double lanes: each lane sums every (4 x lanes)-th square in order, and
  // the lanes and the tail are added last. Every square is exact, so the sum
  // differs from the sequential one only by rounding, and is non-finite
  // exactly when some x[i] is.
  double (*sum_squares)(const float* x, size_t n);
};

// The instruction-set levels the kernels are compiled for, narrowest first.
// Outside x86-64 only kBaseline is built.
enum class KernelLevel { kBaseline, kX86_64_V3, kX86_64_V4 };

// The kernels of `level`, or null when this build does not compile them or
// this CPU cannot run them.
const Kernels* KernelsFor(KernelLevel level);

// The widest kernels this CPU runs, picked once on first use.
const Kernels& ActiveKernels();

// Whether every x[i] is finite and sqrt(sum of x[i]^2), summed in double in
// index order, is at most `threshold`: the sequential loop's verdict, at every
// level. `kernels`' lane sum decides alone when it lies outside a margin
// around threshold^2 that covers both orders' rounding; inside it, the
// sequential loop runs.
bool FiniteWithNormAtMost(const float* x, size_t n, double threshold,
                          const Kernels& kernels = ActiveKernels());

}  // namespace floatfl

#endif  // SRC_NN_KERNELS_H_
